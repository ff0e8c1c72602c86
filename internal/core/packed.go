package core

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/flipper-mining/flipper/internal/itemset"
)

// The packed count wire. A unit's candidates and a tally's supports are the
// bulk of every cluster count request and answer. As JSON arrays of numbers
// they would cost encoding/json a reflected value per number on both ends,
// so each list travels as one JSON string instead: the standard base64
// encoding of unsigned varints (encoding/binary's Uvarint), which encodes
// and decodes in plain loops over bytes. In memory both stay plain slices:
// PackedSets is a []itemset.Set and PackedSupports a []int64, and either
// slice assigns to them as it is.

// PackedSets is a list of itemsets whose JSON form is packed: the number of
// sets, then for each set its length, its first item and the gap from each
// item to the next, all uvarints, in one base64 string. Items must be
// non-negative and ascending or equal within a set; a canonical itemset
// (strictly ascending) has every gap at least 1.
type PackedSets []itemset.Set

// PackedSupports is a list of supports whose JSON form is packed: each
// value as a uvarint, in one base64 string. Supports are never negative.
type PackedSupports []int64

// errPacking is wrapped by every rejection of packed bytes.
var errPacking = errors.New("core: malformed packing")

// MarshalText packs the sets (see PackedSets).
func (ps PackedSets) MarshalText() ([]byte, error) {
	size := binary.MaxVarintLen64
	for _, s := range ps {
		size += 1 + 2*len(s) // most gaps take one byte, most first items two
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(ps)))
	for i, s := range ps {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		prev := itemset.ID(0)
		for j, id := range s {
			if id < prev {
				return nil, fmt.Errorf("core: pack set %d: item %d (%d) is negative or below its predecessor", i, j, id)
			}
			buf = binary.AppendUvarint(buf, uint64(id-prev))
			prev = id
		}
	}
	return base64.StdEncoding.AppendEncode(nil, buf), nil
}

// UnmarshalText unpacks the sets (see PackedSets). Every set is a subslice
// of one shared item arena, sized exactly from the count of uvarints.
func (ps *PackedSets) UnmarshalText(text []byte) error {
	b, err := unbase64(text)
	if err != nil {
		return err
	}
	r := uvarints{b: b}
	n := r.next()
	if r.err != nil {
		return fmt.Errorf("%w: set count: %v", errPacking, r.err)
	}
	// Every set takes a length uvarint, so a count over the uvarints left is
	// malformed, and the items are exactly the uvarints left over the lengths.
	left := terminators(r.b)
	if n > uint64(left) {
		return fmt.Errorf("%w: set count %d over %d values", errPacking, n, left)
	}
	sets := make([]itemset.Set, n)
	arena := make([]itemset.ID, 0, left-int(n))
	for i := range sets {
		size := r.next()
		if r.err == nil && size > uint64(cap(arena)-len(arena)) {
			return fmt.Errorf("%w: set %d: length %d over the items left", errPacking, i, size)
		}
		start := len(arena)
		var id uint64
		for j := uint64(0); j < size; j++ {
			gap := r.next()
			if gap > math.MaxInt32-id {
				return fmt.Errorf("%w: set %d: item %d past int32", errPacking, i, j)
			}
			id += gap
			arena = append(arena, itemset.ID(id))
		}
		if r.err != nil {
			return fmt.Errorf("%w: set %d: %v", errPacking, i, r.err)
		}
		sets[i] = arena[start:len(arena):len(arena)]
	}
	if len(r.b) > 0 {
		return fmt.Errorf("%w: %d bytes after the last set", errPacking, len(r.b))
	}
	*ps = sets
	return nil
}

// MarshalText packs the supports (see PackedSupports).
func (ps PackedSupports) MarshalText() ([]byte, error) {
	buf := make([]byte, 0, 2*len(ps))
	for i, v := range ps {
		if v < 0 {
			return nil, fmt.Errorf("core: pack support %d: %d is negative", i, v)
		}
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return base64.StdEncoding.AppendEncode(nil, buf), nil
}

// UnmarshalText unpacks the supports (see PackedSupports).
func (ps *PackedSupports) UnmarshalText(text []byte) error {
	b, err := unbase64(text)
	if err != nil {
		return err
	}
	r := uvarints{b: b}
	sups := make([]int64, terminators(b))
	for i := range sups {
		v := r.next()
		if r.err == nil && v > math.MaxInt64 {
			return fmt.Errorf("%w: support %d past int64", errPacking, i)
		}
		sups[i] = int64(v)
	}
	if r.err != nil || len(r.b) > 0 {
		return fmt.Errorf("%w: a truncated support", errPacking)
	}
	*ps = sups
	return nil
}

// unbase64 decodes a packed list's base64 text.
func unbase64(text []byte) ([]byte, error) {
	b, err := base64.StdEncoding.AppendDecode(nil, text)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errPacking, err)
	}
	return b, nil
}

// terminators counts the uvarints b holds: each one ends in the only byte
// of it below 0x80. A truncated last uvarint is not counted.
func terminators(b []byte) int {
	n := 0
	for _, c := range b {
		if c < 0x80 {
			n++
		}
	}
	return n
}

// uvarints reads consecutive uvarints off b. The first malformed or
// truncated one sets err, and every read after it returns 0.
type uvarints struct {
	b   []byte
	err error
}

func (r *uvarints) next() uint64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Uvarint(r.b)
	if w <= 0 {
		r.err = errors.New("truncated or overlong uvarint")
		return 0
	}
	r.b = r.b[w:]
	return v
}
