package core

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/flipper-mining/flipper/internal/taxonomy"
)

// JSON hooks: the wire forms shared by the flipper CLI's -json-api mode and
// the flipperd service, plus the canonical cache key for configurations.

// MarshalJSON encodes the pruning level by its canonical name.
func (p PruningLevel) MarshalJSON() ([]byte, error) {
	if p < Basic || p > Full {
		return nil, fmt.Errorf("core: cannot marshal pruning level %d", int(p))
	}
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON accepts any spelling ParsePruningLevel accepts.
func (p *PruningLevel) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	v, err := ParsePruningLevel(name)
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// MarshalJSON encodes the counting strategy by its canonical name.
func (s CountStrategy) MarshalJSON() ([]byte, error) {
	if s < CountScan || s > CountBitmap {
		return nil, fmt.Errorf("core: cannot marshal counting strategy %d", int(s))
	}
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts any spelling ParseCountStrategy accepts.
func (s *CountStrategy) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	v, err := ParseCountStrategy(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// CanonicalKey renders the configuration as a deterministic string covering
// exactly the fields that influence the mined output (patterns and the
// algorithmic counters in Stats). Pure execution knobs — Parallelism,
// Shards, Materialize, KeepCellStats — are excluded: they change how fast a
// run goes and how it is instrumented, never what it finds (sharded counting
// merges exact integer partial supports, so shard count cannot move a
// correlation). Two configurations with
// equal keys therefore produce identical pattern sets, which is what makes
// the key safe to use as a result-cache key.
func (c *Config) CanonicalKey() string {
	var b strings.Builder
	b.WriteString("m=")
	b.WriteString(c.Measure.String())
	b.WriteString(";g=")
	b.WriteString(strconv.FormatFloat(c.Gamma, 'g', -1, 64))
	b.WriteString(";e=")
	b.WriteString(strconv.FormatFloat(c.Epsilon, 'g', -1, 64))
	b.WriteString(";sup=")
	if c.MinSupAbs != nil {
		// MinSupAbs takes precedence over MinSup when both are set.
		b.WriteString("abs:")
		for i, v := range c.MinSupAbs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(v, 10))
		}
	} else {
		b.WriteString("frac:")
		for i, v := range c.MinSup {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	b.WriteString(";p=")
	b.WriteString(c.Pruning.String())
	b.WriteString(";s=")
	b.WriteString(c.Strategy.String())
	b.WriteString(";maxk=")
	b.WriteString(strconv.Itoa(c.MaxK))
	b.WriteString(";topk=")
	b.WriteString(strconv.Itoa(c.TopK))
	if c.Anchor != "" {
		b.WriteString(";anchor=")
		b.WriteString(c.Anchor)
		b.WriteString(";k=")
		b.WriteString(strconv.Itoa(c.AnchorTopK))
	}
	return b.String()
}

// LevelJSON is the name-resolved wire form of one chain level.
type LevelJSON struct {
	Level   int      `json:"level"`
	Items   []string `json:"items"`
	Support int64    `json:"support"`
	Corr    float64  `json:"corr"`
	Label   string   `json:"label"`
}

// PatternJSON is the name-resolved wire form of one flipping pattern.
type PatternJSON struct {
	Leaf  []string    `json:"leaf"`
	Gap   float64     `json:"gap"`
	Chain []LevelJSON `json:"chain"`
}

// StatsJSON is the wire form of a run's Stats, with the elapsed time in
// both machine (nanoseconds) and human form.
type StatsJSON struct {
	Transactions      int   `json:"transactions"`
	Height            int   `json:"height"`
	MaxK              int   `json:"max_k"`
	DBScans           int64 `json:"db_scans"`
	CandidatesCounted int64 `json:"candidates_counted"`
	SubsetPruned      int64 `json:"subset_pruned"`
	FrequentItemsets  int64 `json:"frequent_itemsets"`
	PositiveItemsets  int64 `json:"positive_itemsets"`
	NegativeItemsets  int64 `json:"negative_itemsets"`
	AliveItemsets     int64 `json:"alive_itemsets"`
	TPGBreaks         int64 `json:"tpg_breaks"`
	SIBPExcludedItems int64 `json:"sibp_excluded_items"`
	BitmapBuilds      int64 `json:"bitmap_builds"`
	BitmapWordOps     int64 `json:"bitmap_word_ops"`
	TrieNodes         int64 `json:"trie_nodes"`
	ProbesPruned      int64 `json:"probes_pruned"`
	Shards            int   `json:"shards"`
	ShardMergeNs      int64 `json:"shard_merge_ns"`
	PeakCandidates    int64 `json:"peak_candidates"`
	PeakBytes         int64 `json:"peak_bytes"`
	// Degraded is omitted when false so single-process envelopes — and every
	// golden fixture recorded before distributed mining existed — keep their
	// exact bytes.
	Degraded  bool   `json:"degraded,omitempty"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Elapsed   string `json:"elapsed"`
}

// ResultJSON is the wire form of a full mining result: the envelope the
// flipperd service returns for completed mine jobs and the flipper CLI
// emits under -json-api.
type ResultJSON struct {
	PatternCount int           `json:"pattern_count"`
	Patterns     []PatternJSON `json:"patterns"`
	Stats        StatsJSON     `json:"stats"`
}

// VolatileStatsKeys lists the StatsJSON wire fields whose values depend on
// wall-clock time rather than on the mined data: two runs over the same
// input produce identical envelopes except for exactly these keys. The
// golden conformance harness (internal/golden) scrubs them before comparing
// committed fixtures; any new timing field added to StatsJSON must be listed
// here or fixtures regenerated on one machine will fail on the next.
func VolatileStatsKeys() []string {
	return []string{"elapsed", "elapsed_ns", "shard_merge_ns"}
}

// JSON converts the stats into their wire form.
func (s *Stats) JSON() StatsJSON {
	return StatsJSON{
		Transactions:      s.Transactions,
		Height:            s.Height,
		MaxK:              s.MaxK,
		DBScans:           s.DBScans,
		CandidatesCounted: s.CandidatesCounted,
		SubsetPruned:      s.SubsetPruned,
		FrequentItemsets:  s.FrequentItemsets,
		PositiveItemsets:  s.PositiveItemsets,
		NegativeItemsets:  s.NegativeItemsets,
		AliveItemsets:     s.AliveItemsets,
		TPGBreaks:         s.TPGBreaks,
		SIBPExcludedItems: s.SIBPExcludedItems,
		BitmapBuilds:      s.BitmapBuilds,
		BitmapWordOps:     s.BitmapWordOps,
		TrieNodes:         s.TrieNodes,
		ProbesPruned:      s.ProbesPruned,
		Shards:            s.Shards,
		ShardMergeNs:      s.ShardMergeNs,
		PeakCandidates:    s.PeakCandidates,
		PeakBytes:         s.PeakBytes,
		Degraded:          s.Degraded,
		ElapsedNS:         int64(s.Elapsed),
		Elapsed:           s.Elapsed.Round(time.Microsecond).String(),
	}
}

// JSON converts one pattern into its name-resolved wire form.
func (p *Pattern) JSON(tree *taxonomy.Tree) PatternJSON {
	pj := PatternJSON{Leaf: nameSlice(tree, p.Leaf), Gap: p.Gap}
	for _, li := range p.Chain {
		pj.Chain = append(pj.Chain, LevelJSON{
			Level:   li.Level,
			Items:   nameSlice(tree, li.Items),
			Support: li.Support,
			Corr:    li.Corr,
			Label:   li.Label.String(),
		})
	}
	return pj
}

// JSON converts the result into its wire form.
func (r *Result) JSON(tree *taxonomy.Tree) ResultJSON {
	out := ResultJSON{
		PatternCount: len(r.Patterns),
		Patterns:     make([]PatternJSON, 0, len(r.Patterns)),
		Stats:        r.Stats.JSON(),
	}
	for i := range r.Patterns {
		out.Patterns = append(out.Patterns, r.Patterns[i].JSON(tree))
	}
	return out
}
