// Package sketch implements per-item KMV/bottom-k signatures over
// transaction IDs, with one-sided support bounds for item combinations.
//
// A Level holds one signature per item of one taxonomy level: the k smallest
// 64-bit hashes of the item's transaction IDs, the saturation threshold (the
// k-th smallest hash, or MaxUint64 while the item has fewer than k
// transactions), and the item's exact transaction count. From those
// signatures, Bound brackets the support of any item combination — the size
// of the intersection of the items' transaction sets — without touching the
// transaction data:
//
//   - Lo is exact over the region below t = min over the items of their
//     saturation thresholds: the hash is a bijection on uint64, so a hash
//     below t appears in every item's signature iff its transaction is in
//     the true intersection. Lo therefore never exceeds the true support.
//   - Hi adds the most optimistic count of the unseen region: at most
//     min_i(total_i − below_i(t)) intersection transactions can hash ≥ t.
//     Hi therefore never falls below the true support.
//   - Est is the standard KMV point estimate Lo·2⁶⁴/t, clamped into
//     [Lo, Hi]. When no signature is saturated, t is MaxUint64, every
//     transaction of every item is in its signature, and Lo = Est = Hi is
//     the exact support — the sketch degrades into an exact oracle.
//
// The engine's anchored top-K search uses Hi to skip exact counting for
// candidates that cannot reach the frequency threshold or the current
// top-K heap (the one-sided guarantee the pruner depends on), and Est for
// the best-effort mode's recall/latency trade.
package sketch

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"
)

// DefaultK is the per-item signature size used when a configuration leaves
// the sketch size unset: 8 KiB of hashes per item, giving relative support
// error around 1/√k ≈ 3% on saturated items.
const DefaultK = 1024

// Bound brackets the support of one item combination: the true support s
// always satisfies Lo ≤ s ≤ Hi, and Lo ≤ Est ≤ Hi.
type Bound struct {
	Lo  int64
	Hi  int64
	Est int64
}

// Exact reports whether the bracket pins the support to a single value.
func (b Bound) Exact() bool { return b.Lo == b.Hi }

// Hash is the sketch's 64-bit mixer (the splitmix64 finalizer). It is a
// bijection on uint64 — every step is invertible — which is what makes Lo
// exact below the saturation threshold: distinct transactions never collide.
func Hash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sig is one item's signature.
type sig struct {
	hashes []uint64 // ascending; the item's bottom-k transaction hashes
	kth    uint64   // saturation threshold: hashes[k-1], or MaxUint64 unsaturated
	total  int64    // exact number of transactions observed for the item
}

// Level holds the signatures of one taxonomy level, keyed by item ID.
type Level struct {
	k    int
	sigs map[int32]*sig
}

// K returns the per-item signature size.
func (l *Level) K() int { return l.k }

// Items returns the number of items carrying a signature.
func (l *Level) Items() int { return len(l.sigs) }

// Total returns the exact transaction count of one item (0 for unknown items).
func (l *Level) Total(item int32) int64 {
	if s, ok := l.sigs[item]; ok {
		return s.total
	}
	return 0
}

// Builder accumulates transaction keys per item and produces a Level. Keys
// must be unique per item (a transaction observed twice for the same item
// inflates total and breaks the bounds); across items the same key naturally
// recurs — that is what intersection bounding is about.
type Builder struct {
	k    int
	sigs map[int32]*builderSig
}

// builderSig keeps an item's bottom-k hashes as a max-heap while building,
// so memory stays O(k) per item however many transactions stream through.
type builderSig struct {
	heap  []uint64 // max-heap once len == k
	total int64
}

// NewBuilder returns a builder producing signatures of size k (DefaultK
// when k ≤ 0).
func NewBuilder(k int) *Builder {
	if k <= 0 {
		k = DefaultK
	}
	return &Builder{k: k, sigs: make(map[int32]*builderSig)}
}

// Observe records that item occurs in the transaction identified by key.
func (b *Builder) Observe(item int32, key uint64) {
	s := b.sigs[item]
	if s == nil {
		s = &builderSig{}
		b.sigs[item] = s
	}
	s.total++
	h := Hash(key)
	if len(s.heap) < b.k {
		s.heap = append(s.heap, h)
		siftUp(s.heap, len(s.heap)-1)
		return
	}
	if h < s.heap[0] {
		s.heap[0] = h
		siftDown(s.heap, 0)
	}
}

func siftUp(h []uint64, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []uint64, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h[l] > h[big] {
			big = l
		}
		if r < n && h[r] > h[big] {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// Finish freezes the builder into a Level. The builder must not be used
// afterwards.
func (b *Builder) Finish() *Level {
	l := &Level{k: b.k, sigs: make(map[int32]*sig, len(b.sigs))}
	for item, bs := range b.sigs {
		sort.Slice(bs.heap, func(i, j int) bool { return bs.heap[i] < bs.heap[j] })
		s := &sig{hashes: bs.heap, total: bs.total, kth: math.MaxUint64}
		if len(bs.heap) == b.k {
			s.kth = bs.heap[b.k-1]
		}
		l.sigs[item] = s
	}
	b.sigs = nil
	return l
}

// Bound brackets the support of the item combination — the number of
// transactions containing every item. An item without a signature has no
// transactions, so the bound collapses to {0, 0, 0}. The one-sided
// guarantees (Lo ≤ true support ≤ Hi) are what the engine's pruner relies
// on; see the package comment for the argument.
func (l *Level) Bound(items []int32) Bound {
	if len(items) == 0 {
		return Bound{}
	}
	var sigBuf [8]*sig
	sigs := sigBuf[:0]
	t := uint64(math.MaxUint64)
	for _, item := range items {
		s, ok := l.sigs[item]
		if !ok || s.total == 0 {
			return Bound{}
		}
		sigs = append(sigs, s)
		if s.kth < t {
			t = s.kth
		}
	}
	// Trim every signature to its hashes strictly below t. Because t ≤ every
	// kth, the region below t is fully observed for every item.
	var regBuf [8][]uint64
	regions := regBuf[:0]
	base := 0
	var slack int64 = math.MaxInt64
	for i, s := range sigs {
		r := s.hashes[:countBelow(s.hashes, t)]
		regions = append(regions, r)
		if sl := s.total - int64(len(r)); sl < slack {
			slack = sl
		}
		if len(r) < len(regions[base]) {
			base = i
		}
	}
	// Lo: hashes below t present in every signature.
	regions[0], regions[base] = regions[base], regions[0]
	lo := mergeCount(regions)
	hi := lo + slack
	est := lo
	if t != math.MaxUint64 && t != 0 {
		// KMV: the observed region covers a t/2⁶⁴ fraction of the hash
		// space; intersection members are uniform over it. The estimate is
		// clamped into [Lo, Hi] in float space, before a conversion could
		// overflow int64.
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

// mergeBlock is how many hashes of the sparsest region mergeCount carries
// through the other regions at a time (a power of two).
const mergeBlock = 64

// mergeCount returns how many hashes of regions[0] occur in every other
// region. All regions ascend, so each keeps one forward cursor: the sparsest
// region is walked in blocks, each block is merged against the next region
// from that region's cursor, the survivors against the region after, and so
// on — every region is read once, front to back. A merge step advances by
// the borrow bits of the two comparisons instead of branching on them: on
// random hashes each step's direction is a coin flip no branch predictor
// learns.
func mergeCount(regions [][]uint64) int64 {
	if len(regions) == 1 {
		return int64(len(regions[0]))
	}
	var posBuf [8]int
	pos := posBuf[:0]
	for range regions {
		pos = append(pos, 0)
	}
	var buf [mergeBlock]uint64
	var lo int64
	first := regions[0]
	for start := 0; start < len(first); start += mergeBlock {
		cur := first[start:min(start+mergeBlock, len(first))]
		exhausted := false
		for i := 1; i < len(regions) && len(cur) > 0; i++ {
			r, j := regions[i], pos[i]
			n, a := 0, 0
			for a < len(cur) && j < len(r) {
				x, y := cur[a], r[j]
				_, xLess := bits.Sub64(x, y, 0)
				_, yLess := bits.Sub64(y, x, 0)
				// Survivors compact into buf in place: n ≤ a, and cur[a] is
				// read before buf[n] is written.
				buf[n&(mergeBlock-1)] = x
				n += int(1 ^ (xLess | yLess))
				a += int(1 - yLess)
				j += int(1 - xLess)
			}
			pos[i] = j
			// A consumed region holds nothing above this block, so no later
			// block can match.
			exhausted = exhausted || j == len(r)
			cur = buf[:n]
		}
		lo += int64(len(cur))
		if exhausted {
			break
		}
	}
	return lo
}

// countBelow returns how many of the ascending hashes are strictly below t.
func countBelow(hashes []uint64, t uint64) int {
	return sort.Search(len(hashes), func(i int) bool { return hashes[i] >= t })
}

// Set is a full per-dataset sketch: one Level per taxonomy level (index 0
// unused, matching the engine's level indexing), the signature size, and a
// fingerprint of the data the sketch was built from. The fingerprint guards
// warm reuse: a Set loaded from disk is only trusted when its fingerprint
// matches the one recomputed from the live dataset.
type Set struct {
	K           int
	Fingerprint uint64
	Levels      []*Level
}

// Level returns the sketch of taxonomy level h, or nil when absent.
func (s *Set) Level(h int) *Level {
	if h < 0 || h >= len(s.Levels) {
		return nil
	}
	return s.Levels[h]
}

// Serialization: a small versioned binary format so warm engines reload
// sketches instead of re-hashing every level view.
//
//	magic "FLSKETCH" | version u32 | k u32 | fingerprint u64 | nlevels u32
//	per level: present u8; when present:
//	  nitems u32, then per item (ascending id):
//	    id i32 | total i64 | kth u64 | nhashes u32 | nhashes × u64

var magic = [8]byte{'F', 'L', 'S', 'K', 'E', 'T', 'C', 'H'}

const formatVersion = 1

// Encode serializes the set. Item order is canonical (ascending ID), so
// identical sets produce identical bytes.
func (s *Set) Encode(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.write(magic[:])
	bw.u32(formatVersion)
	bw.u32(uint32(s.K))
	bw.u64(s.Fingerprint)
	bw.u32(uint32(len(s.Levels)))
	for _, l := range s.Levels {
		if l == nil {
			bw.write([]byte{0})
			continue
		}
		bw.write([]byte{1})
		bw.u32(uint32(len(l.sigs)))
		ids := make([]int32, 0, len(l.sigs))
		for id := range l.sigs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			sg := l.sigs[id]
			bw.u32(uint32(id))
			bw.u64(uint64(sg.total))
			bw.u64(sg.kth)
			bw.u32(uint32(len(sg.hashes)))
			for _, h := range sg.hashes {
				bw.u64(h)
			}
		}
	}
	return bw.err
}

// Read deserializes a set written by Encode.
func Read(r io.Reader) (*Set, error) {
	br := &errReader{r: r}
	var m [8]byte
	br.read(m[:])
	if br.err != nil {
		return nil, fmt.Errorf("sketch: read header: %w", br.err)
	}
	if m != magic {
		return nil, fmt.Errorf("sketch: bad magic %q", m[:])
	}
	version := br.u32()
	if br.err == nil && version != formatVersion {
		return nil, fmt.Errorf("sketch: unsupported version %d", version)
	}
	k := int(br.u32())
	fp := br.u64()
	nlevels := int(br.u32())
	if br.err != nil {
		return nil, fmt.Errorf("sketch: read header: %w", br.err)
	}
	if k <= 0 || nlevels < 0 || nlevels > 1<<16 {
		return nil, fmt.Errorf("sketch: implausible header (k=%d, levels=%d)", k, nlevels)
	}
	s := &Set{K: k, Fingerprint: fp, Levels: make([]*Level, nlevels)}
	for h := 0; h < nlevels; h++ {
		var present [1]byte
		br.read(present[:])
		if br.err != nil {
			return nil, fmt.Errorf("sketch: level %d: %w", h, br.err)
		}
		if present[0] == 0 {
			continue
		}
		nitems := int(br.u32())
		if br.err != nil || nitems < 0 {
			return nil, fmt.Errorf("sketch: level %d: truncated", h)
		}
		l := &Level{k: k, sigs: make(map[int32]*sig, nitems)}
		for i := 0; i < nitems; i++ {
			id := int32(br.u32())
			total := int64(br.u64())
			kth := br.u64()
			n := int(br.u32())
			if br.err != nil || n < 0 || n > k {
				return nil, fmt.Errorf("sketch: level %d item %d: truncated or oversized", h, i)
			}
			hashes := make([]uint64, n)
			for j := range hashes {
				hashes[j] = br.u64()
			}
			if br.err != nil {
				return nil, fmt.Errorf("sketch: level %d item %d: %w", h, i, br.err)
			}
			l.sigs[id] = &sig{hashes: hashes, kth: kth, total: total}
		}
		s.Levels[h] = l
	}
	return s, nil
}

// SaveFile writes the set to path via a temp file + rename, so a crashed
// writer never leaves a truncated sketch a later engine would half-read.
func (s *Set) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a set from path.
func LoadFile(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

type errWriter struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (w *errWriter) write(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

func (w *errWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

func (w *errWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

type errReader struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (r *errReader) read(b []byte) {
	if r.err != nil {
		return
	}
	_, r.err = io.ReadFull(r.r, b)
}

func (r *errReader) u32() uint32 {
	r.read(r.buf[:4])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

func (r *errReader) u64() uint64 {
	r.read(r.buf[:8])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}
