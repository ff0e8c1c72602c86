package bitmap

import (
	"math/rand"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
)

func TestVectorSetGetCount(t *testing.T) {
	v := NewVector(130) // three words
	if len(v) != 3 {
		t.Fatalf("130 slots packed into %d words, want 3", len(v))
	}
	for _, i := range []int{0, 63, 64, 129} {
		v.Set(i)
	}
	for _, c := range []struct {
		i    int
		want bool
	}{{0, true}, {1, false}, {63, true}, {64, true}, {65, false}, {128, false}, {129, true}} {
		if got := v.Get(c.i); got != c.want {
			t.Errorf("Get(%d) = %v, want %v", c.i, got, c.want)
		}
	}
	if got := v.Count(); got != 4 {
		t.Errorf("Count() = %d, want 4", got)
	}
	v.Set(63) // idempotent
	if got := v.Count(); got != 4 {
		t.Errorf("Count() after re-Set = %d, want 4", got)
	}
}

func TestWords(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}}
	for _, c := range cases {
		if got := Words(c.n); got != c.want {
			t.Errorf("Words(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestIndexSupportSmall(t *testing.T) {
	txs := []itemset.Set{
		itemset.New(1, 2, 3),
		itemset.New(1, 2),
		itemset.New(2, 3),
		itemset.New(1, 3),
	}
	weights := []int64{2, 1, 1, 3}
	ix := Build(txs, weights)
	if ix.N() != 4 || ix.Items() != 3 {
		t.Fatalf("index shape: n=%d items=%d", ix.N(), ix.Items())
	}
	cases := []struct {
		items itemset.Set
		want  int64
	}{
		{itemset.New(), 7},        // empty set: total weight
		{itemset.New(1), 6},       // 2+1+3
		{itemset.New(1, 2), 3},    // 2+1
		{itemset.New(1, 2, 3), 2}, // first tx only
		{itemset.New(2, 3), 3},    // 2+1
		{itemset.New(1, 9), 0},    // unindexed item
	}
	for _, c := range cases {
		got, _ := ix.Support(c.items)
		if got != c.want {
			t.Errorf("Support(%v) = %d, want %d", c.items, got, c.want)
		}
		scratch := make([]Vector, len(c.items))
		got2, _ := ix.SupportInto(c.items, scratch)
		if got2 != c.want {
			t.Errorf("SupportInto(%v) = %d, want %d", c.items, got2, c.want)
		}
	}
}

func TestIndexUniformWeights(t *testing.T) {
	txs := []itemset.Set{itemset.New(1, 2), itemset.New(1, 2), itemset.New(1)}
	ix := Build(txs, nil) // nil weights = all ones
	if sup, _ := ix.Support(itemset.New(1, 2)); sup != 2 {
		t.Errorf("uniform support = %d, want 2", sup)
	}
	if sup, _ := ix.Support(itemset.New(1)); sup != 3 {
		t.Errorf("uniform support = %d, want 3", sup)
	}
}

func TestIndexWordOpsCounted(t *testing.T) {
	// 70 slots → 2 words; a 2-itemset costs ≤ 2 ops per word.
	txs := make([]itemset.Set, 70)
	for i := range txs {
		txs[i] = itemset.New(1, 2)
	}
	ix := Build(txs, nil)
	_, ops := ix.Support(itemset.New(1, 2))
	if ops != 4 {
		t.Errorf("wordOps = %d, want 4 (2 words × 2 vectors)", ops)
	}
	// The zero short-circuit: item 3 never occurs with item 1.
	txs = append(txs, itemset.New(3))
	ix = Build(txs, nil)
	_, ops = ix.Support(itemset.New(1, 3))
	// 71 slots → 2 words; every word zeroes after the first AND: 2×2 = 4 ops.
	if ops != 4 {
		t.Errorf("wordOps = %d, want 4", ops)
	}
}

func TestIndexMemoryBytes(t *testing.T) {
	txs := []itemset.Set{itemset.New(1, 2, 3)}
	ix := Build(txs, nil)
	if got := ix.MemoryBytes(); got != 3*8 {
		t.Errorf("MemoryBytes = %d, want 24", got)
	}
}

func TestItemVectorReadOnlyView(t *testing.T) {
	txs := []itemset.Set{itemset.New(7), itemset.New(7), itemset.New(8)}
	ix := Build(txs, nil)
	v, ok := ix.ItemVector(7)
	if !ok || v.Count() != 2 {
		t.Fatalf("ItemVector(7) = %v ok=%v", v, ok)
	}
	if _, ok := ix.ItemVector(99); ok {
		t.Error("ItemVector(99) found a vector for an absent item")
	}
}

// bruteSupport is the reference: weighted count of transactions containing
// every item.
func bruteSupport(txs []itemset.Set, weights []int64, items itemset.Set) int64 {
	var sup int64
	for i, tx := range txs {
		if items.SubsetOf(tx) {
			w := int64(1)
			if weights != nil {
				w = weights[i]
			}
			sup += w
		}
	}
	return sup
}

// TestSupportMatchesBruteForceRandom is the package-level property test:
// on randomized weighted databases, every candidate's bitmap support equals
// the brute-force subset count.
func TestSupportMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		universe := 1 + rng.Intn(12)
		txs := make([]itemset.Set, n)
		weights := make([]int64, n)
		for i := range txs {
			w := rng.Intn(universe + 1)
			ids := make([]itemset.ID, w)
			for j := range ids {
				ids[j] = itemset.ID(rng.Intn(universe))
			}
			txs[i] = itemset.New(ids...)
			weights[i] = 1 + int64(rng.Intn(5))
		}
		ix := Build(txs, weights)
		for probe := 0; probe < 30; probe++ {
			k := 1 + rng.Intn(4)
			ids := make([]itemset.ID, k)
			for j := range ids {
				ids[j] = itemset.ID(rng.Intn(universe + 2)) // may be unindexed
			}
			items := itemset.New(ids...)
			got, _ := ix.Support(items)
			want := bruteSupport(txs, weights, items)
			if got != want {
				t.Fatalf("trial %d: Support(%v) = %d, brute force = %d", trial, items, got, want)
			}
		}
	}
}

// TestPairKernelMatchesGeneralFold pins the specialized 2-vector kernel to
// the general word-major fold: same support and — because stats are part of
// the golden wire format — the exact same word-op count, across uniform and
// weighted indexes of varying density.
func TestPairKernelMatchesGeneralFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		var weights []int64
		if trial%2 == 1 {
			weights = make([]int64, n)
			for i := range weights {
				weights[i] = 1 + int64(rng.Intn(4))
			}
		}
		txs := make([]itemset.Set, n)
		density := 1 + rng.Intn(4)
		for i := range txs {
			var s []itemset.ID
			for id := itemset.ID(1); id <= 3; id++ {
				if rng.Intn(4) < density {
					s = append(s, id)
				}
			}
			txs[i] = s
		}
		ix := Build(txs, weights)
		a, aok := ix.ItemVector(1)
		b, bok := ix.ItemVector(2)
		if !aok || !bok {
			continue
		}
		// Reference: the general fold, forced by padding with an all-ones
		// vector that changes neither the AND result nor a-word zeroness.
		ones := make(Vector, ix.words)
		for i := range ones {
			ones[i] = ^uint64(0)
		}
		gotSup, gotOps := ix.supportOf2(a, b)
		refSup, refOps := ix.supportOf([]Vector{a, b, ones, ones})
		// The 4-way fold charges extra ops for the two padding vectors:
		// one AND per padding vector per word whose a&b partial survives.
		pad := int64(0)
		for w := 0; w < ix.words; w++ {
			if a[w]&b[w] != 0 {
				pad += 2
			}
		}
		refOps -= pad
		if gotSup != refSup || gotOps != refOps {
			t.Fatalf("trial %d (n=%d uniform=%v): pair kernel (sup=%d ops=%d) vs general fold (sup=%d ops=%d)",
				trial, n, weights == nil, gotSup, gotOps, refSup, refOps)
		}
	}
}

// naiveAndSupport is AndSupport's reference: the weighted count of the slots
// [0, n) set in both vectors, visited one slot at a time.
func naiveAndSupport(a, b Vector, weights []int64, n int) int64 {
	var sup int64
	for i := 0; i < n; i++ {
		if a.Get(i) && b.Get(i) {
			sup += weights[i]
		}
	}
	return sup
}

// TestAndSupportMatchesNaive checks the carried-AND kernel against the
// slot-by-slot weighted intersection: the support, the destination bits,
// one word op per word, and aliasing the destination with an operand, over
// uniform and heavy weights, lengths with a partial last word and all-zero
// vectors.
func TestAndSupportMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct {
		name  string
		n     int
		heavy bool // some weights above 1
		fill  int  // set each slot with probability fill/4; 0 leaves both vectors zero
	}{
		{"uniform", 256, false, 2},
		{"heavy", 256, true, 2},
		{"partial last word", 130, true, 3},
		{"single slot", 1, true, 4},
		{"zero vectors", 200, true, 0},
		{"empty", 0, false, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			for trial := 0; trial < 50; trial++ {
				a, b := NewVector(c.n), NewVector(c.n)
				heavy := NewVector(c.n)
				weights := make([]int64, c.n)
				for i := range weights {
					weights[i] = 1
					if c.heavy && rng.Intn(4) == 0 {
						weights[i] = 2 + int64(rng.Intn(1000))
						heavy.Set(i)
					}
					if rng.Intn(4) < c.fill {
						a.Set(i)
					}
					if rng.Intn(4) < c.fill {
						b.Set(i)
					}
				}
				want := naiveAndSupport(a, b, weights, c.n)
				dst := NewVector(c.n)
				sup, ops := AndSupport(dst, a, b, heavy, weights)
				if sup != want {
					t.Fatalf("trial %d: AndSupport = %d, naive = %d", trial, sup, want)
				}
				if ops != int64(len(dst)) {
					t.Fatalf("trial %d: %d word ops over %d words", trial, ops, len(dst))
				}
				for w := range dst {
					if dst[w] != a[w]&b[w] {
						t.Fatalf("trial %d: dst word %d = %#x, want %#x", trial, w, dst[w], a[w]&b[w])
					}
				}
				// A carried prefix is the destination of the step before it.
				if sup, _ := AndSupport(a, a, b, heavy, weights); sup != want {
					t.Fatalf("trial %d: AndSupport into its own operand = %d, naive = %d", trial, sup, want)
				}
			}
		})
	}
}
