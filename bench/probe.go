package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/flipper-mining/flipper/internal/bitmap"
	"github.com/flipper-mining/flipper/internal/candtrie"
	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// probeInput is the dataset and configuration a traced run's layer probes
// load and mine: the workload's primary dataset and configuration.
type probeInput struct {
	ds  dataset
	cfg core.Config
}

// probePairs is how many leaf-item pairs the kernel probes query.
const probePairs = 10_000

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// runProbes times each layer's public entry points on the workload's own
// data, after the measured window, one call at a time: parsing and loading,
// materializing the level views, the bitmap and candidate-trie kernels, cold
// against warm mining, result encoding, and anchored search with its item
// sketches. The bitmap and trie kernels must agree on every pair's support.
func runProbes(in probeInput, seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	start := time.Now()
	tree, err := in.ds.parseTree()
	if err != nil {
		return nil, err
	}
	m["taxonomy.parse_ms"] = ms(time.Since(start))
	start = time.Now()
	src, err := in.ds.openSource(tree)
	if err != nil {
		return nil, err
	}
	m["txdb.load_ms"] = ms(time.Since(start))

	var materialize, build time.Duration
	var leaf []txdb.WeightedTx
	var leafIx *bitmap.Index
	var leafItems []itemset.ID
	for h := 1; h <= tree.Height(); h++ {
		start = time.Now()
		lv, err := txdb.Materialize(src, tree, h)
		if err != nil {
			return nil, err
		}
		dd := lv.Dedup()
		materialize += time.Since(start)
		txs := make([]itemset.Set, len(dd))
		ws := make([]int64, len(dd))
		for i, w := range dd {
			txs[i], ws[i] = w.Items, w.Weight
		}
		start = time.Now()
		ix := bitmap.Build(txs, ws)
		build += time.Since(start)
		if h == tree.Height() {
			leaf, leafIx = dd, ix
			for id := range lv.Support {
				leafItems = append(leafItems, id)
			}
		}
	}
	m["txdb.materialize_ms"] = ms(materialize)
	m["bitmap.build_ms"] = ms(build)
	if err := probeKernels(m, leaf, leafIx, leafItems, seed); err != nil {
		return nil, err
	}

	start = time.Now()
	cold, err := core.Mine(src, tree, in.cfg)
	if err != nil {
		return nil, err
	}
	coldT := time.Since(start)
	eng := core.NewEngine(src, tree)
	warm, err := timedMines(eng, in.cfg, 3)
	if err != nil {
		return nil, err
	}
	m["core.search_ms"] = ms(warm)
	m["core.prepare_ms"] = ms(coldT - warm)
	var enc bytes.Buffer
	start = time.Now()
	if err := cold.WriteAPIJSON(&enc, tree); err != nil {
		return nil, err
	}
	m["core.encode_ms"] = ms(time.Since(start))
	m["core.encode_bytes"] = float64(enc.Len())

	// Anchored search on a fresh engine whose level views are warm: the
	// first anchored mine also builds the item sketches.
	anchors := tree.NodesAtLevel(1)
	if len(anchors) < 2 {
		return nil, fmt.Errorf("anchored probe needs two level-1 items, have %d", len(anchors))
	}
	fresh := core.NewEngine(src, tree)
	if _, err := fresh.Mine(in.cfg); err != nil {
		return nil, err
	}
	anchored := func(id itemset.ID) (time.Duration, *core.Result, error) {
		c := in.cfg
		c.Anchor, c.AnchorTopK = tree.Name(id), 5
		start := time.Now()
		res, err := fresh.Mine(c)
		return time.Since(start), res, err
	}
	first, _, err := anchored(anchors[0])
	if err != nil {
		return nil, err
	}
	var times []float64
	var probes, pruned, fallbacks float64
	for _, id := range anchors[:2] {
		d, res, err := anchored(id)
		if err != nil {
			return nil, err
		}
		times = append(times, ms(d))
		probes += float64(res.Stats.SketchProbes) / 2
		pruned += float64(res.Stats.SketchPruned) / 2
		fallbacks += float64(res.Stats.ExactFallbacks) / 2
	}
	m["sketch.build_ms"] = ms(first) - times[0]
	m["core.anchored_ms"] = median(times)
	m["core.anchored_over_full"] = median(times) / ms(warm)
	m["sketch.probes"], m["sketch.pruned"], m["sketch.exact_fallbacks"] = probes, pruned, fallbacks
	m["sketch.skip_ratio"] = 0
	if probes > 0 {
		m["sketch.skip_ratio"] = pruned / probes
	}
	return m, nil
}

// timedMines runs one untimed mine, then n timed ones, and returns the
// median time.
func timedMines(eng *core.Engine, cfg core.Config, n int) (time.Duration, error) {
	if _, err := eng.Mine(cfg); err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := eng.Mine(cfg); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(start)))
	}
	return time.Duration(median(ts)), nil
}

// probeKernels times support counting of random leaf-item pairs with both
// counting kernels over the deduplicated leaf view: the bitmap AND+popcount
// per pair, and one candidate-trie pass over the view with every pair
// inserted. The two must agree on every support.
func probeKernels(m map[string]float64, leaf []txdb.WeightedTx, ix *bitmap.Index, items []itemset.ID, seed int64) error {
	if len(items) < 2 || len(leaf) == 0 {
		return fmt.Errorf("kernel probe needs two leaf items and a transaction")
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]itemset.Set, probePairs)
	for i := range pairs {
		a := rng.Intn(len(items))
		b := (a + 1 + rng.Intn(len(items)-1)) % len(items)
		pairs[i] = itemset.New(items[a], items[b])
	}
	bm := make([]int64, len(pairs))
	scratch := make([]bitmap.Vector, 2)
	var wordOps int64
	start := time.Now()
	for i, p := range pairs {
		sup, ops := ix.SupportInto(p, scratch)
		bm[i] = sup
		wordOps += ops
	}
	m["bitmap.pair_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(pairs))
	m["bitmap.bytes_per_query"] = float64(wordOps*8) / float64(len(pairs))

	st := candtrie.New(2)
	entry := make([]int32, len(pairs))
	for i, p := range pairs {
		entry[i], _ = st.Insert(p)
	}
	st.Freeze()
	counts := make([]int64, st.Len())
	buf := make(itemset.Set, 0, 64)
	start = time.Now()
	for _, tx := range leaf {
		buf = st.Filter(tx.Items, buf[:0])
		st.CountTx(buf, tx.Weight, counts)
	}
	m["candtrie.count_ns_per_tx"] = float64(time.Since(start).Nanoseconds()) / float64(len(leaf))
	for i, p := range pairs {
		if counts[entry[i]] != bm[i] {
			return fmt.Errorf("kernels disagree on %v: bitmap %d, trie %d", p, bm[i], counts[entry[i]])
		}
	}
	return nil
}
