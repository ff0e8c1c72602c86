package core

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
)

// randomUnit draws a unit of k-itemsets, 1 ≤ k ≤ 8, canonical and
// duplicate-free: none, one or up to 40 candidates, their items small, at
// 0, or near math.MaxInt32, where the packing's gaps and first items take
// their longest uvarints.
func randomUnit(rng *rand.Rand) ShardUnit {
	k := 1 + rng.Intn(8)
	n := []int{0, 1, 2 + rng.Intn(39)}[rng.Intn(3)]
	seen := map[string]bool{}
	var cands []itemset.Set
	for len(cands) < n {
		ids := map[itemset.ID]bool{}
		for len(ids) < k {
			switch rng.Intn(4) {
			case 0:
				ids[0] = true
			case 1:
				ids[itemset.ID(math.MaxInt32-rng.Intn(4))] = true
			default:
				ids[itemset.ID(rng.Intn(300))] = true
			}
		}
		var s itemset.Set
		for id := range ids {
			s = append(s, id)
		}
		slices.Sort(s)
		if !seen[s.Key()] {
			seen[s.Key()] = true
			cands = append(cands, s)
		}
	}
	return ShardUnit{Level: 1 + rng.Intn(3), K: k, Shard: rng.Intn(4), Candidates: cands}
}

// TestPackedRoundTrip is the wire's round-trip property: random units and
// tallies encode to JSON and decode to equal values, and the candidates and
// supports travel as one string each.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	sizes := map[int]bool{}
	for trial := 0; trial < 500; trial++ {
		u := randomUnit(rng)
		raw, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		if c := fields["candidates"]; len(c) == 0 || c[0] != '"' {
			t.Fatalf("candidates travel as %s, want one string", c)
		}
		var got ShardUnit
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("unit %s: %v", raw, err)
		}
		if got.Level != u.Level || got.K != u.K || got.Shard != u.Shard ||
			!slices.EqualFunc(got.Candidates, u.Candidates, slices.Equal) {
			t.Fatalf("unit %+v came back as %+v", u, got)
		}
		sizes[len(u.Candidates)] = true

		var tally ShardTally
		for range u.Candidates {
			tally.Supports = append(tally.Supports, []int64{0, rng.Int63n(1000), math.MaxInt64 - rng.Int63n(4)}[rng.Intn(3)])
		}
		if raw, err = json.Marshal(tally); err != nil {
			t.Fatal(err)
		}
		var back ShardTally
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("tally %s: %v", raw, err)
		}
		if !slices.Equal(back.Supports, tally.Supports) {
			t.Fatalf("tally %+v came back as %+v", tally, back)
		}
	}
	if !sizes[0] || !sizes[1] {
		t.Fatalf("unit sizes drawn %v; want none and one among them", sizes)
	}
}

// TestPackedRejects pins the codec's refusals: what does not pack fails to
// encode, and bytes that are not a packing fail to decode with errPacking.
func TestPackedRejects(t *testing.T) {
	for name, sets := range map[string]PackedSets{
		"descending items": {{3, 2}},
		"negative item":    {{-1, 2}},
	} {
		if _, err := sets.MarshalText(); err == nil {
			t.Errorf("%s: packed", name)
		}
	}
	if _, err := (PackedSupports{1, -1}).MarshalText(); err == nil {
		t.Error("a negative support packed")
	}
	packed := func(vs ...uint64) string {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return base64.StdEncoding.EncodeToString(b)
	}
	truncated := base64.StdEncoding.EncodeToString([]byte{1, 2, 5, 0x80})
	for name, text := range map[string]string{
		"bad base64":            "!!!",
		"empty":                 "",
		"truncated uvarint":     truncated,
		"count over values":     packed(3, 1, 5),
		"length over items":     packed(1, 4, 5, 6),
		"first item past int32": packed(1, 1, math.MaxInt32+1),
		"gap past int32":        packed(1, 2, math.MaxInt32, 1),
		"trailing bytes":        packed(1, 1, 5, 7),
	} {
		var ps PackedSets
		if err := ps.UnmarshalText([]byte(text)); !errors.Is(err, errPacking) {
			t.Errorf("sets, %s: got %v, want errPacking", name, err)
		}
	}
	for name, text := range map[string]string{
		"bad base64":        "!!!",
		"truncated uvarint": truncated,
		"past int64":        packed(math.MaxInt64 + 1),
	} {
		var ps PackedSupports
		if err := ps.UnmarshalText([]byte(text)); !errors.Is(err, errPacking) {
			t.Errorf("supports, %s: got %v, want errPacking", name, err)
		}
	}
	var ps PackedSets
	if err := ps.UnmarshalText([]byte(packed(2, 2, 4, 3, 1, 0))); err != nil ||
		!slices.EqualFunc(ps, PackedSets{{4, 7}, {0}}, slices.Equal) {
		t.Fatalf("a hand-packed pair of sets decoded to %v, %v", ps, err)
	}
}
