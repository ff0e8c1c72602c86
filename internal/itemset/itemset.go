// Package itemset provides the shared itemset kernel used by every miner in
// this module: a canonical representation for sets of item identifiers,
// deterministic map keys, Apriori-style joins and subset enumeration.
//
// An itemset is a strictly increasing slice of int32 item identifiers. The
// strict ordering makes equality, hashing, joining and subset checks cheap
// and allocation-light, which matters because the Flipper engine materializes
// millions of candidate itemsets on dense workloads.
package itemset

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// ID is an item identifier. Identifiers are assigned by a txdb.Dictionary and
// shared with taxonomy nodes: every taxonomy node (leaf or internal) is an
// item and owns exactly one ID.
type ID = int32

// Set is a canonical itemset: item IDs in strictly increasing order with no
// duplicates. The zero value is the empty itemset.
type Set []ID

// New builds a canonical Set from the given IDs, sorting and deduplicating.
func New(ids ...ID) Set {
	if len(ids) == 0 {
		return nil
	}
	return Canon(slices.Clone(ids))
}

// Canon sorts and deduplicates ids in place and returns the canonical prefix
// (nil when ids is empty): New without the copy, for buffers the caller owns
// and reuses, so canonicalizing a transaction allocates nothing.
func Canon(ids []ID) Set {
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return Set(out)
}

// FromSorted wraps ids as a Set without copying. The caller asserts that ids
// is strictly increasing; IsCanonical can verify.
func FromSorted(ids []ID) Set { return Set(ids) }

// IsCanonical reports whether s is strictly increasing (the Set invariant).
func (s Set) IsCanonical() bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// K returns the number of items (the "k" of a k-itemset).
func (s Set) K() int { return len(s) }

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Contains reports whether s contains id, by binary search.
func (s Set) Contains(id ID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// IndexOf returns the position of id in s, or -1.
func (s Set) IndexOf(id ID) int {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	if i < len(s) && s[i] == id {
		return i
	}
	return -1
}

// Equal reports whether s and t contain exactly the same items.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Compare orders itemsets lexicographically by item sequence, with a proper
// prefix sorting before its extensions. The order agrees with the byte order
// of Key, so replacing key-sorted iteration with Compare-sorted iteration
// preserves determinism without building any key strings.
func Compare(s, t Set) int {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		switch {
		case s[i] < t[i]:
			return -1
		case s[i] > t[i]:
			return 1
		}
	}
	switch {
	case len(s) < len(t):
		return -1
	case len(s) > len(t):
		return 1
	}
	return 0
}

// SubsetOf reports whether every item of s is in t. Both must be canonical.
func (s Set) SubsetOf(t Set) bool {
	if len(s) > len(t) {
		return false
	}
	j := 0
	for _, id := range s {
		for j < len(t) && t[j] < id {
			j++
		}
		if j >= len(t) || t[j] != id {
			return false
		}
		j++
	}
	return true
}

// Without returns a copy of s with the item at position idx removed.
func (s Set) Without(idx int) Set {
	out := make(Set, 0, len(s)-1)
	out = append(out, s[:idx]...)
	out = append(out, s[idx+1:]...)
	return out
}

// WithoutItem returns a copy of s with the given item removed; it returns s
// itself (shared storage) when the item is absent.
func (s Set) WithoutItem(id ID) Set {
	idx := s.IndexOf(id)
	if idx < 0 {
		return s
	}
	return s.Without(idx)
}

// Insert returns a canonical itemset containing s's items plus id. If id is
// already present, a copy of s is returned.
func (s Set) Insert(id ID) Set {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	if i < len(s) && s[i] == id {
		return s.Clone()
	}
	out := make(Set, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, id)
	out = append(out, s[i:]...)
	return out
}

// Union returns the canonical union of s and t.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns the canonical intersection of s and t.
func (s Set) Intersect(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Key returns a compact string key that uniquely identifies the itemset.
// It is suitable as a map key; two itemsets have equal keys iff Equal.
func (s Set) Key() string {
	if len(s) == 0 {
		return ""
	}
	// 4 bytes per ID, big-endian-ish packing. Deterministic and compact.
	b := make([]byte, 4*len(s))
	for i, id := range s {
		b[4*i+0] = byte(uint32(id) >> 24)
		b[4*i+1] = byte(uint32(id) >> 16)
		b[4*i+2] = byte(uint32(id) >> 8)
		b[4*i+3] = byte(uint32(id))
	}
	return string(b)
}

// AppendKey appends the Key encoding of s to dst and returns the extended
// buffer. Probing a map with map[string(AppendKey(buf[:0], s))] avoids the
// per-lookup allocation of Key on hot counting paths.
func AppendKey(dst []byte, s Set) []byte {
	for _, id := range s {
		dst = append(dst,
			byte(uint32(id)>>24), byte(uint32(id)>>16), byte(uint32(id)>>8), byte(uint32(id)))
	}
	return dst
}

// ParseKey reverses Key. It returns an error when the key length is not a
// multiple of four bytes.
func ParseKey(key string) (Set, error) {
	if len(key)%4 != 0 {
		return nil, fmt.Errorf("itemset: malformed key of %d bytes", len(key))
	}
	s := make(Set, len(key)/4)
	for i := range s {
		v := uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 | uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
		s[i] = int32(v)
	}
	return s, nil
}

// String renders the itemset as "{1, 5, 9}" using raw IDs. For human-readable
// names, resolve through a txdb.Dictionary.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte('}')
	return b.String()
}

// Subsets calls fn for every (k-1)-subset of s, reusing a single scratch
// buffer across calls. fn must not retain the argument; clone if needed.
func (s Set) Subsets(fn func(sub Set)) {
	if len(s) == 0 {
		return
	}
	scratch := make(Set, len(s)-1)
	for drop := range s {
		copy(scratch, s[:drop])
		copy(scratch[drop:], s[drop+1:])
		fn(scratch)
	}
}

// Join attempts the Apriori join of two canonical k-itemsets that share their
// first k-1 items. On success it returns the joined (k+1)-itemset and true.
// The inputs must be canonical and have equal length ≥ 1.
func Join(a, b Set) (Set, bool) {
	k := len(a)
	if k == 0 || len(b) != k {
		return nil, false
	}
	for i := 0; i < k-1; i++ {
		if a[i] != b[i] {
			return nil, false
		}
	}
	if a[k-1] >= b[k-1] {
		return nil, false
	}
	out := make(Set, k+1)
	copy(out, a)
	out[k] = b[k-1]
	return out, true
}

// KSubsets enumerates every k-subset of the canonical set universe, invoking
// fn with a scratch buffer that is reused across calls (clone to retain).
// Enumeration is in lexicographic order. The counting tests use it as the
// flat subset enumeration the scan counter's trie descent replaced.
func KSubsets(universe Set, k int, fn func(sub Set)) {
	n := len(universe)
	if k <= 0 || k > n {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	scratch := make(Set, k)
	for {
		for i, j := range idx {
			scratch[i] = universe[j]
		}
		fn(scratch)
		// Advance combination indexes.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// Binomial returns C(n, k) saturating at math.MaxInt64 for large inputs; it
// backs the scan counter's cost model when choosing a counting strategy.
func Binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	const maxInt64 = int64(^uint64(0) >> 1)
	var res int64 = 1
	for i := 1; i <= k; i++ {
		// res = res * (n-k+i) / i, guarding overflow.
		f := int64(n - k + i)
		if res > maxInt64/f {
			return maxInt64
		}
		res = res * f / int64(i)
	}
	return res
}
