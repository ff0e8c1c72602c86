package candtrie

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
)

func TestInsertLookupWalk(t *testing.T) {
	s := New(2)
	sets := []itemset.Set{
		itemset.New(3, 4), itemset.New(1, 2), itemset.New(1, 9), itemset.New(2, 3),
	}
	idx := make(map[string]int32)
	for _, set := range sets {
		e, added := s.Insert(set)
		if !added {
			t.Fatalf("Insert(%v) reported duplicate", set)
		}
		idx[set.Key()] = e
	}
	if s.Len() != len(sets) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(sets))
	}
	// Re-inserting returns the existing entry.
	if e, added := s.Insert(itemset.New(1, 2)); added || e != idx[itemset.New(1, 2).Key()] {
		t.Fatalf("duplicate insert: e=%d added=%v", e, added)
	}
	if s.Len() != len(sets) {
		t.Fatalf("Len after duplicate = %d", s.Len())
	}
	for _, set := range sets {
		if e := s.Lookup(set); e != idx[set.Key()] {
			t.Fatalf("Lookup(%v) = %d, want %d", set, e, idx[set.Key()])
		}
		if !s.Items(idx[set.Key()]).Equal(set) {
			t.Fatalf("Items(%d) = %v, want %v", idx[set.Key()], s.Items(idx[set.Key()]), set)
		}
	}
	for _, absent := range []itemset.Set{itemset.New(1, 3), itemset.New(4, 9), itemset.New(9, 11)} {
		if e := s.Lookup(absent); e != -1 {
			t.Fatalf("Lookup(%v) = %d, want -1", absent, e)
		}
	}
	// Walk is lexicographic regardless of insertion order.
	var walked []itemset.Set
	s.Walk(func(e int32, items itemset.Set) {
		walked = append(walked, items.Clone())
	})
	if len(walked) != len(sets) {
		t.Fatalf("Walk visited %d entries", len(walked))
	}
	for i := 1; i < len(walked); i++ {
		if itemset.Compare(walked[i-1], walked[i]) >= 0 {
			t.Fatalf("Walk out of order: %v before %v", walked[i-1], walked[i])
		}
	}
	if !walked[0].Equal(itemset.New(1, 2)) {
		t.Fatalf("first walked = %v", walked[0])
	}
}

func TestFilterAndCountTx(t *testing.T) {
	s := New(2)
	s.Insert(itemset.New(1, 2))
	s.Insert(itemset.New(2, 3))
	s.Freeze()

	var buf itemset.Set
	buf = s.Filter(itemset.New(1, 2, 3, 99), buf[:0])
	if !itemset.Set(buf).Equal(itemset.New(1, 2, 3)) {
		t.Fatalf("Filter = %v", buf)
	}

	counts := make([]int64, s.Len())
	hits := s.CountTx(buf, 5, counts)
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
	for _, set := range []itemset.Set{itemset.New(1, 2), itemset.New(2, 3)} {
		if c := counts[s.Lookup(set)]; c != 5 {
			t.Fatalf("count of %v = %d", set, c)
		}
	}
	// Too-narrow transactions contribute nothing.
	before := append([]int64(nil), counts...)
	if h := s.CountTx(itemset.New(2), 1, counts); h != 0 {
		t.Fatalf("narrow tx hit %d", h)
	}
	for i := range counts {
		if counts[i] != before[i] {
			t.Fatal("narrow transaction changed counts")
		}
	}
	// A transaction matching only a dead-end prefix counts nothing: {1,3}
	// shares the prefix 1 with candidate {1,2} but never completes it, and
	// the descent abandons the branch without enumerating subsets.
	if h := s.CountTx(itemset.New(1, 3), 1, counts); h != 0 {
		t.Fatalf("dead-end prefix produced %d hits", h)
	}
	for i := range counts {
		if counts[i] != before[i] {
			t.Fatal("dead-end transaction changed counts")
		}
	}
}

// layouts pins each counting layout through the freeze hook.
var layouts = []struct {
	name  string
	limit int
}{{"dense", math.MaxInt}, {"csr", -1}}

// checkAgainstBruteForce counts txs through the frozen store s three ways —
// the rank entry point (FilterRanks, then CountRanks), CountTx over the row
// filtered first and CountTx over the raw row — and checks every support
// and every transaction's hits against the obvious reference: a subset test
// per candidate.
func checkAgainstBruteForce(t *testing.T, label string, s *Store, txs []itemset.Set, weights []int64) {
	t.Helper()
	byRank := make([]int64, s.Len())
	counts := make([]int64, s.Len())
	raw := make([]int64, s.Len())
	want := make([]int64, s.Len())
	var buf itemset.Set
	var ranks []int32
	for i, tx := range txs {
		var wantHits int64
		for e := range want {
			if s.Items(int32(e)).SubsetOf(tx) {
				want[e] += weights[i]
				wantHits++
			}
		}
		ranks = s.FilterRanks(tx, ranks[:0])
		if h := s.CountRanks(ranks, weights[i], byRank); h != wantHits {
			t.Fatalf("%s: tx %d mapped to %d ranks hit %d, want %d", label, i, len(ranks), h, wantHits)
		}
		buf = s.Filter(tx, buf[:0])
		if h := s.CountTx(buf, weights[i], counts); h != wantHits {
			t.Fatalf("%s: tx %d filtered to %d items hit %d, want %d", label, i, len(buf), h, wantHits)
		}
		if h := s.CountTx(tx, weights[i], raw); h != wantHits {
			t.Fatalf("%s: tx %d unfiltered hit %d, want %d", label, i, h, wantHits)
		}
	}
	for e := range want {
		if byRank[e] != want[e] || counts[e] != want[e] || raw[e] != want[e] {
			t.Fatalf("%s: count of %v = %d by rank, %d filtered, %d unfiltered, brute force %d",
				label, s.Items(int32(e)), byRank[e], counts[e], raw[e], want[e])
		}
	}
}

// checkOneLayout fails unless the frozen store holds only the layout it
// chose: Freeze must truncate the other layout's slabs.
func checkOneLayout(t *testing.T, label string, s *Store) {
	t.Helper()
	if s.dense && len(s.csrStart) != 0 || !s.dense && len(s.blocks) != 0 {
		t.Fatalf("%s: dense = %v with %d block slots and %d CSR spans", label, s.dense, len(s.blocks), len(s.csrStart))
	}
}

// TestCountTxAgainstBruteForce drives random stores and random transactions
// through both layouts, re-freezing one store in each in alternating order,
// against the brute-force reference. Candidates draw their items from
// [base, base+universe) and rows from [0, base+universe+3), so rows reach
// past the store's ID range on both sides; every eighth trial is wide, its
// rows holding more candidate items than CountTx's stack buffer.
func TestCountTxAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	widest := 0
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(3)
		universe, sets := 6+rng.Intn(10), 3+rng.Intn(25)
		wide := trial%8 == 0
		if wide {
			universe, sets = 72+rng.Intn(24), 150+rng.Intn(50)
		}
		base := rng.Intn(3)
		s := New(k)
		for i := 0; i < sets; i++ {
			ids := make([]itemset.ID, 0, k)
			for len(ids) < k {
				id := itemset.ID(base + rng.Intn(universe))
				dup := false
				for _, x := range ids {
					if x == id {
						dup = true
					}
				}
				if !dup {
					ids = append(ids, id)
				}
			}
			s.Insert(itemset.New(ids...))
		}
		var txs []itemset.Set
		var weights []int64
		for txi := 0; txi < 30; txi++ {
			var ids []itemset.ID
			if wide {
				for id := 0; id < base+universe+3; id++ {
					if rng.Intn(10) != 0 {
						ids = append(ids, itemset.ID(id))
					}
				}
			} else {
				for j := 0; j < rng.Intn(universe+2); j++ {
					ids = append(ids, itemset.ID(rng.Intn(base+universe+3)))
				}
			}
			txs = append(txs, itemset.New(ids...))
			weights = append(weights, int64(1+rng.Intn(4)))
		}
		for i := range layouts {
			l := layouts[(trial+i)%len(layouts)] // alternate which layout replaces which
			label := fmt.Sprintf("trial %d %s", trial, l.name)
			s.freeze(l.limit)
			checkOneLayout(t, label, s)
			checkAgainstBruteForce(t, label, s, txs, weights)
			for _, tx := range txs {
				widest = max(widest, len(s.FilterRanks(tx, nil)))
			}
		}
	}
	if widest <= 64 {
		t.Fatalf("the widest row maps to %d ranks, want more than 64", widest)
	}
}

// allSets returns every k-itemset over the items 0..n-1.
func allSets(k, n int) []itemset.Set {
	universe := make(itemset.Set, n)
	for i := range universe {
		universe[i] = itemset.ID(i)
	}
	var sets []itemset.Set
	itemset.KSubsets(universe, k, func(sub itemset.Set) {
		sets = append(sets, sub.Clone())
	})
	return sets
}

// TestDenseCap pins Freeze's layout choice on both sides of the cap: the
// rank table plus one R-slot block per internal node, against denseCap
// slots. Each store then counts rows wider than 64 items, and rows reaching
// past its ID range, in the layout it chose.
func TestDenseCap(t *testing.T) {
	var pairsAtCap []itemset.Set // every pair over 512 items but {510, 511}
	for _, p := range allSets(2, 512) {
		if p[0] != 510 {
			pairsAtCap = append(pairsAtCap, p)
		}
	}
	cases := []struct {
		name  string
		k     int
		cands []itemset.Set
		slots int // rank table + internal nodes × R
		dense bool
	}{
		// Root + first items 0..509, 512 items: exactly the cap.
		{"k2/at-cap", 2, pairsAtCap, 512 + 511*512, true},
		// First item 510 adds one internal node: one block over.
		{"k2/over", 2, allSets(2, 512), 512 + 512*512, false},
		// Root + 78 first items + C(79,2) pair prefixes, 80 items.
		{"k3/under", 3, allSets(3, 80), 80 + 3160*80, true},
		// Root + 79 + C(80,2), 81 items: 0.15 % over.
		{"k3/over", 3, allSets(3, 81), 81 + 3240*81, false},
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range cases {
		s := New(c.k)
		for _, set := range c.cands {
			s.Insert(set)
		}
		s.Freeze()
		if slots := len(s.rank) + (len(s.nodes)-s.Len())*s.width; slots != c.slots {
			t.Fatalf("%s: %d slots, want %d", c.name, slots, c.slots)
		}
		if (c.slots <= denseCap) != c.dense || s.dense != c.dense {
			t.Fatalf("%s: %d slots against cap %d: dense = %v, want %v", c.name, c.slots, denseCap, s.dense, c.dense)
		}
		maxID := int(c.cands[len(c.cands)-1][c.k-1])
		var txs []itemset.Set
		var weights []int64
		for i := 0; i < 6; i++ {
			var ids []itemset.ID
			for j := 0; j < 70+rng.Intn(30); j++ {
				ids = append(ids, itemset.ID(rng.Intn(maxID+20)))
			}
			txs = append(txs, itemset.New(ids...))
			weights = append(weights, int64(1+rng.Intn(3)))
		}
		checkAgainstBruteForce(t, c.name, s, txs, weights)
	}
}

// TestWideAndOutOfRangeRows counts, under both layouts, rows of more than 64
// candidate items and unfiltered rows whose IDs fall below minID and above
// maxID, which must count nothing.
func TestWideAndOutOfRangeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for k := 2; k <= 3; k++ {
		s := New(k)
		for i := 0; i < 400; i++ {
			ids := make([]itemset.ID, k)
			for j := range ids {
				ids[j] = itemset.ID(20 + rng.Intn(100)) // candidate items in [20, 119]
			}
			if set := itemset.New(ids...); len(set) == k {
				s.Insert(set)
			}
		}
		every := make(itemset.Set, 0, 151)
		for id := itemset.ID(0); id <= 150; id++ {
			every = append(every, id)
		}
		txs := []itemset.Set{
			every,                   // 100 candidate items among 151
			every[:20], every[120:], // only IDs below minID, only above maxID
			itemset.New(3, 25, 40, 130),    // both sides of the range
			itemset.New(0, 1, 2, 140, 150), // outside on both sides, none inside
		}
		for i := 0; i < 5; i++ {
			var ids []itemset.ID
			for j := 0; j < 65+rng.Intn(40); j++ {
				ids = append(ids, itemset.ID(rng.Intn(151)))
			}
			txs = append(txs, itemset.New(ids...))
		}
		weights := make([]int64, len(txs))
		for i := range weights {
			weights[i] = int64(1 + i%3)
		}
		for _, l := range layouts {
			s.freeze(l.limit)
			if got := s.FilterRanks(every, nil); len(got) <= 64 {
				t.Fatalf("k=%d: the widest row filters to %d items, want more than 64", k, len(got))
			}
			checkAgainstBruteForce(t, fmt.Sprintf("k=%d %s", k, l.name), s, txs, weights)
		}
	}
}

func TestEmptyStore(t *testing.T) {
	s := New(2)
	s.Freeze()
	if s.Len() != 0 || s.NodeCount() != 0 {
		t.Fatalf("empty store: Len=%d NodeCount=%d", s.Len(), s.NodeCount())
	}
	if e := s.Lookup(itemset.New(1, 2)); e != -1 {
		t.Fatalf("Lookup on empty = %d", e)
	}
	if got := s.Filter(itemset.New(1, 2, 3), nil); len(got) != 0 {
		t.Fatalf("Filter on empty = %v", got)
	}
	// ID 0 is a valid dictionary-assigned ID and must not slip past the
	// empty store's range check into the empty rank table.
	if got := s.Filter(itemset.Set{0}, nil); len(got) != 0 {
		t.Fatalf("Filter({0}) on empty = %v", got)
	}
	if got := s.FilterRanks(itemset.Set{0, 1, 2}, nil); len(got) != 0 {
		t.Fatalf("FilterRanks on empty = %v", got)
	}
	if h := s.CountTx(itemset.New(1, 2, 3), 1, nil); h != 0 {
		t.Fatalf("CountTx on empty = %d", h)
	}
	s.Walk(func(int32, itemset.Set) { t.Fatal("Walk visited an entry") })
}

// checkContents fails unless s holds exactly the itemsets of sets: Walk
// visits each once, in lexicographic order, and Lookup finds each at the
// index Insert returned for it (want).
func checkContents(t *testing.T, label string, s *Store, sets []itemset.Set, want map[string]int32) {
	t.Helper()
	sorted := make([]itemset.Set, 0, len(want))
	seen := make(map[string]bool)
	for _, set := range sets {
		if !seen[set.Key()] {
			seen[set.Key()] = true
			sorted = append(sorted, set)
		}
	}
	slices.SortFunc(sorted, itemset.Compare)
	i := 0
	s.Walk(func(e int32, items itemset.Set) {
		if i >= len(sorted) || !items.Equal(sorted[i]) || e != want[items.Key()] {
			t.Fatalf("%s: Walk step %d visited %v (entry %d), want %d itemsets in order %v", label, i, items, e, len(sorted), sorted)
		}
		i++
	})
	if i != len(sorted) || s.Len() != len(sorted) {
		t.Fatalf("%s: Walk visited %d entries, Len = %d, want %d", label, i, s.Len(), len(sorted))
	}
	for _, set := range sorted {
		if e := s.Lookup(set); e != want[set.Key()] {
			t.Fatalf("%s: Lookup(%v) = %d, want %d", label, set, e, want[set.Key()])
		}
	}
}

// TestResetReuse cycles one store through Reset/Insert/Freeze with different
// candidate sets and layouts — dense, CSR, empty, dense, … — and checks each
// generation holds exactly its itemsets, as does a fresh store given the
// same inserts, counts like the brute-force reference and like the fresh
// store, keeps none of the other layout's slots, and, replayed once every
// slab has grown, allocates nothing: the properties the engine's store pool
// depends on. The first insert of every generation after the first meets
// the insertion finger the previous generation left, which Reset must
// clear, and every fresh store's first insert meets a finger that was never
// set.
func TestResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reused := New(2)
	type generation struct {
		sets  []itemset.Set
		limit int
	}
	var gens []generation
	for gen := 0; gen < 52; gen++ {
		reused.Reset()
		if len(reused.rank) != 0 || len(reused.blocks) != 0 || len(reused.csrStart) != 0 {
			t.Fatalf("gen %d: Reset kept a rank table or layout", gen)
		}
		fresh := New(2)
		g := generation{limit: denseCap}
		if gen%4 == 1 {
			g.limit = -1 // CSR
		}
		universe := 4 + rng.Intn(12)
		idx := make(map[string]int32)
		for i := 0; gen%4 != 2 && i < 1+rng.Intn(20); i++ { // every fourth store stays empty
			a := itemset.ID(rng.Intn(universe))
			b := itemset.ID(rng.Intn(universe))
			if a == b {
				continue
			}
			set := itemset.New(a, b)
			g.sets = append(g.sets, set)
			re, ra := reused.Insert(set)
			fe, fa := fresh.Insert(set)
			if re != fe || ra != fa {
				t.Fatalf("gen %d: Insert(%v) = (%d,%v) reused vs (%d,%v) fresh", gen, set, re, ra, fe, fa)
			}
			if _, dup := idx[set.Key()]; dup == ra {
				t.Fatalf("gen %d: Insert(%v) reported added = %v on a store that held it: %v", gen, set, ra, dup)
			}
			idx[set.Key()] = re
		}
		gens = append(gens, g)
		checkContents(t, fmt.Sprintf("gen %d reused", gen), reused, g.sets, idx)
		checkContents(t, fmt.Sprintf("gen %d fresh", gen), fresh, g.sets, idx)
		reused.freeze(g.limit)
		fresh.freeze(g.limit)
		checkContents(t, fmt.Sprintf("gen %d reused, frozen", gen), reused, g.sets, idx)
		if reused.Len() != fresh.Len() || reused.NodeCount() != fresh.NodeCount() {
			t.Fatalf("gen %d: Len/NodeCount diverged", gen)
		}
		if reused.dense != fresh.dense {
			t.Fatalf("gen %d: layouts diverged", gen)
		}
		checkOneLayout(t, fmt.Sprintf("gen %d", gen), reused)
		if reused.Len() == 0 && (len(reused.rank) != 0 || len(reused.blocks) != 0) {
			t.Fatalf("gen %d: empty store kept %d rank slots, %d block slots", gen, len(reused.rank), len(reused.blocks))
		}
		rc := make([]int64, reused.Len())
		fc := make([]int64, fresh.Len())
		var rbuf, fbuf itemset.Set
		var txs []itemset.Set
		for txi := 0; txi < 20; txi++ {
			var ids []itemset.ID
			for j := 0; j < rng.Intn(universe+2); j++ {
				ids = append(ids, itemset.ID(rng.Intn(universe)))
			}
			tx := itemset.New(ids...)
			txs = append(txs, tx)
			rbuf = reused.Filter(tx, rbuf[:0])
			fbuf = fresh.Filter(tx, fbuf[:0])
			if !rbuf.Equal(fbuf) {
				t.Fatalf("gen %d: Filter diverged: %v vs %v", gen, rbuf, fbuf)
			}
			if rh, fh := reused.CountTx(rbuf, 1, rc), fresh.CountTx(fbuf, 1, fc); rh != fh {
				t.Fatalf("gen %d: hits diverged: %d reused, %d fresh", gen, rh, fh)
			}
		}
		for i := range rc {
			if rc[i] != fc[i] {
				t.Fatalf("gen %d: count of %v = %d reused, %d fresh",
					gen, reused.Items(int32(i)), rc[i], fc[i])
			}
		}
		weights := make([]int64, len(txs))
		for i := range weights {
			weights[i] = int64(1 + i%3)
		}
		checkAgainstBruteForce(t, fmt.Sprintf("gen %d reused", gen), reused, txs, weights)
	}
	replay := func() {
		for _, g := range gens {
			reused.Reset()
			for _, set := range g.sets {
				reused.Insert(set)
			}
			reused.freeze(g.limit)
		}
	}
	if allocs := testing.AllocsPerRun(3, replay); allocs != 0 {
		t.Fatalf("replaying the generations on grown slabs allocated %.0f times", allocs)
	}
}

// randomSets returns n distinct random k-itemsets over the items
// [base, base+universe), in lexicographic order.
func randomSets(rng *rand.Rand, n, k, base, universe int) []itemset.Set {
	seen := make(map[string]bool)
	var sets []itemset.Set
	for len(sets) < n {
		ids := make([]itemset.ID, k)
		for j := range ids {
			ids[j] = itemset.ID(base + rng.Intn(universe))
		}
		if set := itemset.New(ids...); len(set) == k && !seen[set.Key()] {
			seen[set.Key()] = true
			sets = append(sets, set)
		}
	}
	slices.SortFunc(sets, itemset.Compare)
	return sets
}

// TestInsertOrder inserts one candidate set in ascending, descending and
// shuffled order: the insertion finger may shorten the sibling walks but
// must not change the trie, so every order walks the same itemsets in
// lexicographic order (checkContents) and hits the brute-force reference's
// candidates on every row, in both layouts. Re-inserting every itemset
// afterwards, in another order, finds each at the index its first insert
// returned.
func TestInsertOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 2; k <= 4; k++ {
		sets := randomSets(rng, 300, k, 10, 40)
		descending := slices.Clone(sets)
		slices.Reverse(descending)
		shuffled := slices.Clone(sets)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var txs []itemset.Set
		var weights []int64
		for i := 0; i < 40; i++ {
			var ids []itemset.ID
			for j := 0; j < 5+rng.Intn(25); j++ {
				ids = append(ids, itemset.ID(rng.Intn(60)))
			}
			txs = append(txs, itemset.New(ids...))
			weights = append(weights, 1)
		}
		for _, o := range []struct {
			name string
			sets []itemset.Set
		}{{"ascending", sets}, {"descending", descending}, {"shuffled", shuffled}} {
			s := New(k)
			idx := make(map[string]int32)
			for _, set := range o.sets {
				e, added := s.Insert(set)
				if !added {
					t.Fatalf("k=%d %s: Insert(%v) reported a duplicate", k, o.name, set)
				}
				idx[set.Key()] = e
			}
			for _, set := range shuffled {
				if e, added := s.Insert(set); added || e != idx[set.Key()] {
					t.Fatalf("k=%d %s: re-Insert(%v) = (%d, %v), want (%d, false)", k, o.name, set, e, added, idx[set.Key()])
				}
			}
			for _, l := range layouts {
				label := fmt.Sprintf("k=%d %s %s", k, o.name, l.name)
				checkContents(t, label, s, sets, idx)
				s.freeze(l.limit)
				checkAgainstBruteForce(t, label, s, txs, weights)
			}
		}
	}
}

// TestLookupLayouts asks one store for present, absent, out-of-range and
// malformed itemsets unfrozen, frozen dense and frozen CSR, and again
// after an Insert unfreezes it: every answer must be the same.
func TestLookupLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for k := 2; k <= 3; k++ {
		sets := randomSets(rng, 120, k, 20, 30) // items in [20, 49]
		s := New(k)
		for _, set := range sets {
			s.Insert(set)
		}
		queries := slices.Clone(sets)
		queries = append(queries, randomSets(rng, 200, k, 15, 40)...) // mostly absent, some out of range
		queries = append(queries,
			itemset.Set{0, 1, 2}[:k],       // below minID
			itemset.Set{60, 61, 62}[:k],    // above maxID
			itemset.Set{-5, 20, 21}[:k],    // negative
			append(sets[0][:k-1:k-1], 200), // a present prefix, an out-of-range last item
			slices.Clone(sets[1][:k-1]),    // too short
			append(slices.Clone(sets[2]), 49),
		)
		rev := slices.Clone(sets[3])
		slices.Reverse(rev)
		queries = append(queries, rev) // not canonical
		want := make([]int32, len(queries))
		for i, q := range queries {
			want[i] = s.Lookup(q)
		}
		for i, set := range sets {
			if want[i] != int32(i) {
				t.Fatalf("k=%d: unfrozen Lookup(%v) = %d, want %d", k, set, want[i], i)
			}
		}
		check := func(state string) {
			t.Helper()
			for i, q := range queries {
				if got := s.Lookup(q); got != want[i] {
					t.Fatalf("k=%d %s: Lookup(%v) = %d, unfrozen %d", k, state, q, got, want[i])
				}
			}
		}
		for _, l := range layouts {
			s.freeze(l.limit)
			check("frozen " + l.name)
		}
		if _, added := s.Insert(sets[0]); added {
			t.Fatalf("k=%d: re-Insert added a duplicate", k)
		}
		check("re-inserted")
	}
}
