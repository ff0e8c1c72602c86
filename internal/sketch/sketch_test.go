package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// refSupport is the brute-force reference: the size of the intersection of
// the items' transaction sets.
func refSupport(lists map[int32][]uint64, items []int32) int64 {
	if len(items) == 0 {
		return 0
	}
	count := make(map[uint64]int)
	for _, item := range items {
		seen := make(map[uint64]bool)
		for _, tid := range lists[item] {
			if !seen[tid] {
				seen[tid] = true
				count[tid]++
			}
		}
	}
	var n int64
	for _, c := range count {
		if c == len(items) {
			n++
		}
	}
	return n
}

// buildLevel runs every list through a builder of size k.
func buildLevel(lists map[int32][]uint64, k int) *Level {
	b := NewBuilder(k)
	for item, tids := range lists {
		seen := make(map[uint64]bool)
		for _, tid := range tids {
			if seen[tid] {
				continue
			}
			seen[tid] = true
			b.Observe(item, tid)
		}
	}
	return b.Finish()
}

// randomLists draws a random per-item tid-list family over a shared universe,
// so intersections are non-trivial.
func randomLists(rng *rand.Rand) map[int32][]uint64 {
	universe := rng.Intn(400) + 1
	items := rng.Intn(6) + 1
	lists := make(map[int32][]uint64)
	for i := 0; i < items; i++ {
		n := rng.Intn(universe + 1)
		if i == 0 && n == 0 {
			n = 1 // at least one non-empty list, so probes always exist
		}
		for j := 0; j < n; j++ {
			lists[int32(i)] = append(lists[int32(i)], uint64(rng.Intn(universe)))
		}
	}
	return lists
}

func checkBound(t *testing.T, lists map[int32][]uint64, items []int32, k int) {
	t.Helper()
	l := buildLevel(lists, k)
	got := l.Bound(items)
	want := refSupport(lists, items)
	if got.Lo > want {
		t.Fatalf("k=%d items=%v: Lo %d above true support %d", k, items, got.Lo, want)
	}
	if got.Hi < want {
		t.Fatalf("k=%d items=%v: Hi %d below true support %d", k, items, got.Hi, want)
	}
	if got.Est < got.Lo || got.Est > got.Hi {
		t.Fatalf("k=%d items=%v: Est %d outside [%d, %d]", k, items, got.Est, got.Lo, got.Hi)
	}
}

// TestBoundSoundProperty is the pruner's invariant over random data: the
// sketch bracket always contains the true support, for saturated and
// unsaturated signature sizes alike.
func TestBoundSoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		lists := randomLists(rng)
		k := rng.Intn(64) + 1
		var all []int32
		for item := range lists {
			all = append(all, item)
		}
		for probe := 0; probe < 8; probe++ {
			items := all[:rng.Intn(len(all))+1]
			checkBound(t, lists, items, k)
		}
	}
}

// TestBoundExactWhenUnsaturated: with k at least as large as every list, no
// signature saturates and the sketch is an exact oracle (Lo == Hi == truth).
func TestBoundExactWhenUnsaturated(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		lists := randomLists(rng)
		maxLen := 0
		var all []int32
		for item, tids := range lists {
			all = append(all, item)
			if len(tids) > maxLen {
				maxLen = len(tids)
			}
		}
		l := buildLevel(lists, maxLen+1)
		items := all[:rng.Intn(len(all))+1]
		got := l.Bound(items)
		want := refSupport(lists, items)
		if got.Lo != want || got.Hi != want || got.Est != want {
			t.Fatalf("unsaturated sketch not exact: got %+v want %d", got, want)
		}
		if !got.Exact() {
			t.Fatalf("unsaturated bound not Exact(): %+v", got)
		}
	}
}

func TestBoundEdgeCases(t *testing.T) {
	l := buildLevel(map[int32][]uint64{1: {10, 20, 30}, 2: {20, 30}}, 8)
	if got := l.Bound(nil); got != (Bound{}) {
		t.Fatalf("empty combination: got %+v", got)
	}
	if got := l.Bound([]int32{1, 99}); got != (Bound{}) {
		t.Fatalf("unknown item: got %+v, want zero bound", got)
	}
	if got := l.Bound([]int32{1, 2}); got.Lo != 2 || got.Hi != 2 {
		t.Fatalf("tiny exact intersection: got %+v, want {2 2 2}", got)
	}
	if got := l.Total(1); got != 3 {
		t.Fatalf("Total(1) = %d, want 3", got)
	}
	if got := l.Total(99); got != 0 {
		t.Fatalf("Total(99) = %d, want 0", got)
	}
	if l.Items() != 2 {
		t.Fatalf("Items() = %d, want 2", l.Items())
	}
	if l.K() != 8 {
		t.Fatalf("K() = %d, want 8", l.K())
	}
}

// TestHashBijective spot-checks injectivity of the mixer on a dense range —
// a collision would break the exactness of Lo.
func TestHashBijective(t *testing.T) {
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := Hash(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Hash collision: Hash(%d) == Hash(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lists := randomLists(rng)
	set := &Set{
		K:           16,
		Fingerprint: 0xdeadbeefcafe,
		Levels:      []*Level{nil, buildLevel(lists, 16), buildLevel(lists, 16)},
	}
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.K != set.K || got.Fingerprint != set.Fingerprint || len(got.Levels) != len(set.Levels) {
		t.Fatalf("header mismatch: %+v vs %+v", got, set)
	}
	if got.Level(0) != nil {
		t.Fatal("absent level resurrected")
	}
	if got.Level(99) != nil {
		t.Fatal("out-of-range level not nil")
	}
	var all []int32
	for item := range lists {
		all = append(all, item)
	}
	for h := 1; h <= 2; h++ {
		for probe := 0; probe < 8; probe++ {
			items := all[:rng.Intn(len(all))+1]
			a, b := set.Levels[h].Bound(items), got.Level(h).Bound(items)
			if a != b {
				t.Fatalf("level %d bound drifted through serialization: %+v vs %+v", h, a, b)
			}
		}
	}
	// Canonical bytes: re-serializing the loaded set reproduces the file.
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("serialization not canonical: round-trip changed bytes")
	}
}

func TestSerializationRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTASKTCHxxxxxxxxxxxxxxxxxxx"),
		"truncated": append([]byte("FLSKETCH"), 1, 0, 0),
	}
	for name, b := range cases {
		if _, err := Read(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s: Read accepted garbage", name)
		}
	}
	// Version from the future.
	var buf bytes.Buffer
	set := &Set{K: 4, Levels: []*Level{nil}}
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[8] = 99 // version byte
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("Read accepted an unsupported version")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sketches.bin")
	lists := map[int32][]uint64{3: {1, 2, 3}, 7: {2, 3, 4}}
	set := &Set{K: 8, Fingerprint: 42, Levels: []*Level{nil, buildLevel(lists, 8)}}
	if err := set.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != 42 {
		t.Fatalf("fingerprint %d, want 42", got.Fingerprint)
	}
	if b := got.Level(1).Bound([]int32{3, 7}); b.Lo != 2 || b.Hi != 2 {
		t.Fatalf("loaded bound %+v, want exact 2", b)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("LoadFile invented a missing file")
	}
}

// FuzzSketchBoundSound fuzzes the pruner invariant: however the lists and
// the probed combination are drawn, the sketch bracket contains the true
// support computed by the brute-force reference.
func FuzzSketchBoundSound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(4), uint8(2))
	f.Add([]byte{0}, uint8(1), uint8(1))
	f.Add(bytes.Repeat([]byte{9, 1, 200}, 50), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, kByte, nItems uint8) {
		k := int(kByte%64) + 1
		items := int(nItems%5) + 1
		// Decode data as a stream of (item, tid) observations.
		lists := make(map[int32][]uint64)
		for i := 0; i+1 < len(data); i += 2 {
			item := int32(data[i] % uint8(items))
			tid := uint64(data[i+1])
			lists[item] = append(lists[item], tid)
		}
		if len(lists) == 0 {
			return
		}
		l := buildLevel(lists, k)
		var probe []int32
		for item := range lists {
			probe = append(probe, item)
		}
		got := l.Bound(probe)
		want := refSupport(lists, probe)
		if got.Lo > want || got.Hi < want {
			t.Fatalf("bound [%d, %d] excludes true support %d (k=%d, items=%v)",
				got.Lo, got.Hi, want, k, probe)
		}
		if got.Est < got.Lo || got.Est > got.Hi {
			t.Fatalf("Est %d outside [%d, %d]", got.Est, got.Lo, got.Hi)
		}
		// Lo is exact below the saturation threshold: it counts precisely
		// the true intersection members whose hash falls below t.
		thr := uint64(math.MaxUint64)
		for _, item := range probe {
			if s := l.sigs[item]; s.kth < thr {
				thr = s.kth
			}
		}
		var below int64
		for _, tid := range refIntersection(lists, probe) {
			if Hash(tid) < thr {
				below++
			}
		}
		if got.Lo != below {
			t.Fatalf("Lo %d, want %d intersection hashes below t (k=%d, items=%v)",
				got.Lo, below, k, probe)
		}
	})
}

// refIntersection lists the distinct transaction IDs present in every item's
// list.
func refIntersection(lists map[int32][]uint64, items []int32) []uint64 {
	count := make(map[uint64]int)
	for _, item := range items {
		seen := make(map[uint64]bool)
		for _, tid := range lists[item] {
			if !seen[tid] {
				seen[tid] = true
				count[tid]++
			}
		}
	}
	var out []uint64
	for tid, c := range count {
		if c == len(items) {
			out = append(out, tid)
		}
	}
	return out
}

// refBound is the binary-search formulation of Bound: for every hash of the
// sparsest region below t, binary-search each other signature. Bound's
// cursor merge must agree with it exactly.
func refBound(l *Level, items []int32) Bound {
	if len(items) == 0 {
		return Bound{}
	}
	sigs := make([]*sig, len(items))
	t := uint64(math.MaxUint64)
	for i, item := range items {
		s, ok := l.sigs[item]
		if !ok || s.total == 0 {
			return Bound{}
		}
		sigs[i] = s
		if s.kth < t {
			t = s.kth
		}
	}
	base := 0
	var slack int64 = math.MaxInt64
	below := make([]int, len(sigs))
	for i, s := range sigs {
		below[i] = countBelow(s.hashes, t)
		if sl := s.total - int64(below[i]); sl < slack {
			slack = sl
		}
		if below[i] < below[base] {
			base = i
		}
	}
	var lo int64
	for _, h := range sigs[base].hashes[:below[base]] {
		in := true
		for i, s := range sigs {
			if i == base {
				continue
			}
			hs := s.hashes[:below[i]]
			j := sort.Search(len(hs), func(j int) bool { return hs[j] >= h })
			if j == len(hs) || hs[j] != h {
				in = false
				break
			}
		}
		if in {
			lo++
		}
	}
	hi := lo + slack
	est := lo
	if t != math.MaxUint64 && t != 0 {
		e := float64(lo) * (float64(math.MaxUint64) / float64(t))
		switch {
		case e >= float64(hi):
			est = hi
		case int64(e) > est:
			est = int64(e)
		}
	}
	if est > hi {
		est = hi
	}
	return Bound{Lo: lo, Hi: hi, Est: est}
}

// TestBoundMatchesReference pins the cursor-merge Bound to the
// binary-search formulation over saturated and unsaturated signatures of
// 1–4 items, including identical and disjoint transaction sets.
func TestBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := []string{"random", "identical", "disjoint", "nested"}
	for trial := 0; trial < 400; trial++ {
		shape := shapes[trial%len(shapes)]
		nItems := rng.Intn(4) + 1
		universe := rng.Intn(600) + 1
		lists := make(map[int32][]uint64)
		shared := rng.Perm(universe)[:rng.Intn(universe)+1]
		for i := 0; i < nItems; i++ {
			var tids []uint64
			switch shape {
			case "random":
				for j, n := 0, rng.Intn(universe+1); j < n; j++ {
					tids = append(tids, uint64(rng.Intn(universe)))
				}
			case "identical":
				for _, tid := range shared {
					tids = append(tids, uint64(tid))
				}
			case "disjoint":
				for j, n := 0, rng.Intn(universe)+1; j < n; j++ {
					tids = append(tids, uint64(i*universe+rng.Intn(universe)))
				}
			case "nested":
				for _, tid := range shared[:1+(len(shared)-1)*(nItems-i)/nItems] {
					tids = append(tids, uint64(tid))
				}
			}
			if len(tids) == 0 {
				tids = []uint64{uint64(rng.Intn(universe))}
			}
			lists[int32(i)] = tids
		}
		probe := make([]int32, nItems)
		for i := range probe {
			probe[i] = int32(i)
		}
		rng.Shuffle(len(probe), func(i, j int) { probe[i], probe[j] = probe[j], probe[i] })
		for _, k := range []int{1, 4, 32, rng.Intn(universe) + 1, universe + 1} {
			l := buildLevel(lists, k)
			for n := 1; n <= nItems; n++ {
				got, want := l.Bound(probe[:n]), refBound(l, probe[:n])
				if got != want {
					t.Fatalf("trial %d (%s) k=%d items=%v: Bound %+v, reference %+v",
						trial, shape, k, probe[:n], got, want)
				}
			}
		}
	}
}

func TestBoundUnsaturatedThresholdIsMax(t *testing.T) {
	// A single unsaturated item: kth must be MaxUint64 and the bound exact.
	b := NewBuilder(100)
	for i := uint64(0); i < 10; i++ {
		b.Observe(1, i)
	}
	l := b.Finish()
	if l.sigs[1].kth != math.MaxUint64 {
		t.Fatalf("unsaturated kth = %d, want MaxUint64", l.sigs[1].kth)
	}
	if got := l.Bound([]int32{1}); got.Lo != 10 || got.Hi != 10 || got.Est != 10 {
		t.Fatalf("single-item bound %+v, want exact 10", got)
	}
}
