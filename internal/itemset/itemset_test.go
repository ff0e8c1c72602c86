package itemset

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewCanonicalizes(t *testing.T) {
	cases := []struct {
		in   []ID
		want Set
	}{
		{nil, nil},
		{[]ID{5}, Set{5}},
		{[]ID{3, 1, 2}, Set{1, 2, 3}},
		{[]ID{4, 4, 4}, Set{4}},
		{[]ID{9, 1, 9, 1, 5}, Set{1, 5, 9}},
	}
	for _, c := range cases {
		got := New(c.in...)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("New(%v) = %v, want %v", c.in, got, c.want)
		}
		if !got.IsCanonical() {
			t.Errorf("New(%v) not canonical: %v", c.in, got)
		}
		// Canon does the same in place, without allocating.
		buf := slices.Clone(c.in)
		if got := Canon(buf); !reflect.DeepEqual(got, c.want) || len(got) > 0 && &got[0] != &buf[0] {
			t.Errorf("Canon(%v) = %v, want %v in the input's storage", c.in, got, c.want)
		}
		if n := testing.AllocsPerRun(10, func() { Canon(buf) }); n != 0 {
			t.Errorf("Canon(%v) allocates %.0f times", c.in, n)
		}
	}
}

func TestIsCanonical(t *testing.T) {
	if !(Set{}).IsCanonical() {
		t.Error("empty set should be canonical")
	}
	if !(Set{1, 2, 3}).IsCanonical() {
		t.Error("{1,2,3} should be canonical")
	}
	if (Set{1, 1, 3}).IsCanonical() {
		t.Error("{1,1,3} must not be canonical")
	}
	if (Set{3, 2}).IsCanonical() {
		t.Error("{3,2} must not be canonical")
	}
}

func TestContainsAndIndexOf(t *testing.T) {
	s := New(2, 4, 8, 16)
	for i, id := range s {
		if !s.Contains(id) {
			t.Errorf("Contains(%d) = false", id)
		}
		if got := s.IndexOf(id); got != i {
			t.Errorf("IndexOf(%d) = %d, want %d", id, got, i)
		}
	}
	for _, id := range []ID{1, 3, 5, 17} {
		if s.Contains(id) {
			t.Errorf("Contains(%d) = true for absent item", id)
		}
		if s.IndexOf(id) != -1 {
			t.Errorf("IndexOf(%d) != -1 for absent item", id)
		}
	}
}

func TestSubsetOf(t *testing.T) {
	s := New(1, 3, 5)
	cases := []struct {
		sub  Set
		want bool
	}{
		{New(), true},
		{New(1), true},
		{New(3, 5), true},
		{New(1, 3, 5), true},
		{New(1, 2), false},
		{New(1, 3, 5, 7), false},
		{New(6), false},
	}
	for _, c := range cases {
		if got := c.sub.SubsetOf(s); got != c.want {
			t.Errorf("%v.SubsetOf(%v) = %v, want %v", c.sub, s, got, c.want)
		}
	}
}

func TestInsert(t *testing.T) {
	s := New(1, 3, 5)
	if got := s.Insert(4); !got.Equal(New(1, 3, 4, 5)) {
		t.Errorf("Insert(4) = %v", got)
	}
	if got := s.Insert(3); !got.Equal(s) {
		t.Errorf("Insert(existing) = %v", got)
	}
	if got := s.Insert(0); !got.Equal(New(0, 1, 3, 5)) {
		t.Errorf("Insert(0) = %v", got)
	}
	if got := s.Insert(9); !got.Equal(New(1, 3, 5, 9)) {
		t.Errorf("Insert(9) = %v", got)
	}
	// The receiver must be unchanged by all of the above.
	if !s.Equal(New(1, 3, 5)) {
		t.Errorf("receiver mutated: %v", s)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	sets := []Set{nil, New(0), New(1, 2, 3), New(1 << 20), New(0, 255, 256, 1<<30)}
	for _, s := range sets {
		key := s.Key()
		back, err := ParseKey(key)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		if !back.Equal(s) {
			t.Errorf("round trip %v -> %v", s, back)
		}
	}
	if _, err := ParseKey("abc"); err == nil {
		t.Error("ParseKey of 3-byte key should fail")
	}
}

func TestKeyUnique(t *testing.T) {
	// Keys must distinguish sets that naive separators could confuse.
	a := New(1, 2)
	b := New(12)
	if a.Key() == b.Key() {
		t.Error("keys collide for {1,2} vs {12}")
	}
}

func TestJoin(t *testing.T) {
	cases := []struct {
		a, b Set
		want Set
		ok   bool
	}{
		{New(1, 2), New(1, 3), New(1, 2, 3), true},
		{New(1, 3), New(1, 2), nil, false}, // wrong order
		{New(1, 2), New(2, 3), nil, false}, // prefix mismatch
		{New(1), New(2), New(1, 2), true},
		{New(2), New(1), nil, false},
		{New(1, 2), New(1, 2), nil, false}, // identical
		{New(1, 2, 5), New(1, 2, 9), New(1, 2, 5, 9), true},
	}
	for _, c := range cases {
		got, ok := Join(c.a, c.b)
		if ok != c.ok || (ok && !got.Equal(c.want)) {
			t.Errorf("Join(%v, %v) = %v, %v; want %v, %v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestKSubsets(t *testing.T) {
	u := New(1, 2, 3, 4)
	var got []Set
	KSubsets(u, 2, func(sub Set) { got = append(got, sub.Clone()) })
	want := []Set{
		New(1, 2), New(1, 3), New(1, 4),
		New(2, 3), New(2, 4), New(3, 4),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d subsets, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("KSubsets[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Degenerate cases.
	count := 0
	KSubsets(u, 0, func(Set) { count++ })
	KSubsets(u, 5, func(Set) { count++ })
	if count != 0 {
		t.Errorf("degenerate KSubsets invoked fn %d times", count)
	}
	count = 0
	KSubsets(u, 4, func(sub Set) {
		count++
		if !sub.Equal(u) {
			t.Errorf("full subset = %v", sub)
		}
	})
	if count != 1 {
		t.Errorf("k=n enumerated %d times", count)
	}
}

func TestKSubsetsCount(t *testing.T) {
	u := make(Set, 9)
	for i := range u {
		u[i] = ID(i * 2)
	}
	for k := 1; k <= len(u); k++ {
		count := int64(0)
		KSubsets(u, k, func(Set) { count++ })
		if want := Binomial(len(u), k); count != want {
			t.Errorf("k=%d: enumerated %d, want %d", k, count, want)
		}
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{52, 5, 2598960}, {5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	// Saturation: C(200,100) overflows int64; must not panic or go negative.
	if got := Binomial(200, 100); got <= 0 {
		t.Errorf("Binomial(200,100) = %d, want saturated positive", got)
	}
}

// Property: New always produces a canonical set containing exactly the
// distinct inputs.
func TestNewProperty(t *testing.T) {
	f := func(ids []int32) bool {
		s := New(ids...)
		if !s.IsCanonical() {
			return false
		}
		distinct := map[int32]bool{}
		for _, id := range ids {
			distinct[id] = true
		}
		if len(s) != len(distinct) {
			return false
		}
		for _, id := range s {
			if !distinct[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Key round-trips for arbitrary canonical sets.
func TestKeyRoundTripProperty(t *testing.T) {
	f := func(ids []int32) bool {
		s := New(ids...)
		back, err := ParseKey(s.Key())
		return err == nil && back.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SubsetOf and Contains agree with map-based implementations.
func TestSetAlgebraProperty(t *testing.T) {
	f := func(as, bs []int32) bool {
		a, b := New(as...), New(bs...)
		inB := map[int32]bool{}
		for _, id := range b {
			inB[id] = true
		}
		subset := true
		for _, id := range a {
			subset = subset && inB[id]
			if b.Contains(id) != inB[id] {
				return false
			}
		}
		for _, id := range b {
			if !b.Contains(id) {
				return false
			}
		}
		// a ∪ b ⊆ b exactly when a ⊆ b.
		return a.SubsetOf(b) == subset && New(slices.Concat(as, bs)...).SubsetOf(b) == subset
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Join(a,b) succeeds iff the two k-itemsets share the k-1 prefix
// and a's tail precedes b's, and the result is canonical and a superset of
// both inputs.
func TestJoinProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(4)
		prefix := New(randIDs(rng, k+2)...)
		if len(prefix) < k+1 {
			continue
		}
		a := append(prefix[:k-1:k-1].Clone(), prefix[k-1])
		b := append(prefix[:k-1:k-1].Clone(), prefix[k])
		got, ok := Join(a, b)
		if !ok {
			t.Fatalf("Join(%v,%v) failed", a, b)
		}
		if !got.IsCanonical() || !a.SubsetOf(got) || !b.SubsetOf(got) || len(got) != k+1 {
			t.Fatalf("Join(%v,%v) = %v not a canonical union", a, b, got)
		}
	}
}

func randIDs(rng *rand.Rand, n int) []ID {
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(rng.Intn(1000))
	}
	return ids
}

func BenchmarkKey(b *testing.B) {
	s := New(10, 200, 3000, 40000, 500000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Key()
	}
}

func BenchmarkKSubsets(b *testing.B) {
	u := make(Set, 10)
	for i := range u {
		u[i] = ID(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KSubsets(u, 3, func(Set) {})
	}
}
