// Command flipper mines flipping correlation patterns from a basket file
// and a taxonomy file.
//
// Usage:
//
//	flipper -tax taxonomy.tsv -db baskets.txt \
//	        -gamma 0.3 -epsilon 0.1 -minsup 0.01,0.001,0.0005,0.0001 \
//	        [-measure kulczynski] [-pruning full] [-strategy scan] \
//	        [-shards 0] [-topk 0] [-target-patterns 0] [-stream] [-stats] \
//	        [-anchor item] \
//	        [-timeout 0] [-json] [-json-api] [-csv patterns.csv]
//
// The taxonomy file holds one "child<TAB>parent" edge per line; the basket
// file one transaction per line with comma-separated item names. -db also
// accepts a directory: a flipgen dataset directory (its baskets.txt or
// shards/ subdirectory is used) or a directory of shard*.txt basket files
// (the flipgen -shards layout); shards are mined in parallel, and with
// -stream they are streamed in parallel without ever being resident
// together (out-of-core mode). -minsup takes one fraction per taxonomy level, most general first.
// -stream keeps counting passes on disk instead of materializing per-level
// views. Every mine counts by scan; -strategy still accepts "auto",
// "bitmap", "bits", "tidlist" and "tid", names of retired backends, as
// aliases of scan. -shards N partitions an in-memory database into N shards counted
// in parallel (output is byte-identical to the unsharded run).
// -target-patterns auto-tunes ε (the paper's threshold workflow): the most
// selective ε still yielding at least that many patterns is used.
// -anchor switches to anchored top-K search: only patterns whose chain
// passes through the named item are mined, ranked by descending flip gap
// (-topk sets K, default 10). The default output is one block per pattern
// with the full correlation chain; -json emits name-resolved JSON,
// -json-api the full result envelope (pattern count, patterns, run
// statistics) in exactly the shape the flipperd service returns for
// completed mine jobs, and -csv writes one row per chain level.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	flipper "github.com/flipper-mining/flipper"
)

func main() {
	var (
		taxPath  = flag.String("tax", "", "taxonomy file (child<TAB>parent per line)")
		dbPath   = flag.String("db", "", "basket file (comma-separated item names per line)")
		gamma    = flag.Float64("gamma", 0.3, "positive correlation threshold γ")
		epsilon  = flag.Float64("epsilon", 0.1, "negative correlation threshold ε")
		minsup   = flag.String("minsup", "", "per-level minimum supports, e.g. 0.01,0.001,0.0005 (most general level first)")
		meas     = flag.String("measure", "kulczynski", "correlation measure: kulczynski, cosine, all_confidence, coherence, max_confidence")
		pruning  = flag.String("pruning", "full", "pruning level: basic, flipping, flipping+tpg, full")
		strategy = flag.String("strategy", "scan", "support counting: scan (auto, bitmap, bits, tidlist and tid, retired backends, run as scan)")
		shards   = flag.Int("shards", 0, "partition the database into N shards counted in parallel (0 = unsharded; ignored when -db is a shard directory, which brings its own shards, or a single file in -stream mode, which cannot be split — see flipgen -shards)")
		topK     = flag.Int("topk", 0, "keep only the K most flipping patterns (largest correlation gap); with -anchor this is the anchored K (default 10)")
		anchor   = flag.String("anchor", "", "anchored top-K search: return only patterns whose chain passes through this item, ranked by gap")
		target   = flag.Int("target-patterns", 0, "auto-tune ε: search for the most selective ε yielding at least this many patterns")
		maxK     = flag.Int("maxk", 0, "cap the itemset size (0 = data-bound)")
		stream   = flag.Bool("stream", false, "disk-resident mode: re-read the basket file on every pass")
		timeout  = flag.Duration("timeout", 0, "abort the mine after this long, e.g. 30s or 5m (0 = no deadline)")
		extend   = flag.Bool("extend", true, "leaf-copy extend unbalanced taxonomies (paper Fig. 3 variant B)")
		stats    = flag.Bool("stats", false, "print run statistics to stderr")
		asJSON   = flag.Bool("json", false, "emit patterns as JSON")
		asAPI    = flag.Bool("json-api", false, "emit the flipperd result envelope (patterns + stats) as JSON")
		csvPath  = flag.String("csv", "", "also write patterns to a CSV file (one row per chain level)")
	)
	flag.Parse()
	if *taxPath == "" || *dbPath == "" {
		fmt.Fprintln(os.Stderr, "flipper: -tax and -db are required")
		flag.Usage()
		os.Exit(2)
	}

	tree, err := loadTaxonomy(*taxPath)
	if err != nil {
		fail(err)
	}
	if !tree.IsBalanced() && *extend {
		tree = tree.Extend()
	}

	cfg := flipper.DefaultConfig(tree.Height())
	cfg.Gamma = *gamma
	cfg.Epsilon = *epsilon
	cfg.TopK = *topK
	cfg.MaxK = *maxK
	if *anchor != "" {
		// -topk doubles as the anchored K; anchored search replaces the
		// global top-K knob (the two are mutually exclusive in core).
		cfg.Anchor = *anchor
		cfg.AnchorTopK = *topK
		if cfg.AnchorTopK < 1 {
			cfg.AnchorTopK = 10
		}
		cfg.TopK = 0
	}
	if cfg.Measure, err = flipper.ParseMeasure(*meas); err != nil {
		fail(err)
	}
	if cfg.Pruning, err = flipper.ParsePruningLevel(*pruning); err != nil {
		fail(err)
	}
	if cfg.Strategy, err = flipper.ParseCountStrategy(*strategy); err != nil {
		fail(err)
	}
	if *minsup != "" {
		if cfg.MinSup, err = parseMinsup(*minsup); err != nil {
			fail(err)
		}
	}
	if len(cfg.MinSup) != tree.Height() {
		fail(fmt.Errorf("-minsup needs %d comma-separated values for this taxonomy (got %d)",
			tree.Height(), len(cfg.MinSup)))
	}

	src, err := loadSource(*dbPath, tree, *stream)
	if err != nil {
		fail(err)
	}
	if *shards > 1 {
		switch s := src.(type) {
		case *flipper.DB:
			src = flipper.PartitionDB(s, *shards)
		case *flipper.FileSource:
			fmt.Fprintln(os.Stderr, "flipper: warning: -shards ignored — a single basket file cannot be partitioned in -stream mode; split it into a shard directory with flipgen -shards, or drop -stream")
		}
	}

	// Ctrl-C / SIGTERM cancel the mine through the engine's checkpoint
	// polling; -timeout adds a deadline on top.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var res *flipper.Result
	if *target > 0 {
		eps, r, found, err := flipper.SuggestEpsilonContext(ctx, src, tree, cfg, *target)
		if err != nil {
			failMine(err, *timeout)
		}
		if !found {
			fmt.Fprintf(os.Stderr, "flipper: even ε just below γ yields only %d pattern(s); reporting those\n", len(r.Patterns))
		}
		fmt.Fprintf(os.Stderr, "flipper: auto-tuned ε = %.4f\n", eps)
		res = r
	} else {
		r, err := flipper.MineContext(ctx, src, tree, cfg)
		if err != nil {
			failMine(err, *timeout)
		}
		res = r
	}
	switch {
	case *asAPI:
		if err := res.WriteAPIJSON(os.Stdout, tree); err != nil {
			fail(err)
		}
	case *asJSON:
		if err := res.WriteJSON(os.Stdout, tree); err != nil {
			fail(err)
		}
	default:
		fmt.Printf("%d flipping pattern(s)\n\n", len(res.Patterns))
		for _, p := range res.Patterns {
			fmt.Print(p.Format(tree))
			fmt.Println()
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fail(err)
		}
		if err := res.WriteCSV(f, tree); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	if *stats {
		fmt.Fprintln(os.Stderr, res.Stats.String())
	}
}

// loadSource resolves -db: a basket file, a directory of shard*.txt basket
// files (mined as a ShardedSource — in parallel, and with -stream never
// resident together), or a flipgen dataset directory, whose baskets.txt or
// shards/ subdirectory is used — with baskets.txt winning when both exist,
// matching the flipperd registry, so a dataset never changes content by
// gaining a stray shards/ directory.
func loadSource(path string, tree *flipper.Taxonomy, stream bool) (flipper.Source, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return flipper.OpenBasketSource(path, tree.Dict(), stream)
	}
	if fi, err := os.Stat(filepath.Join(path, "baskets.txt")); err == nil && !fi.IsDir() {
		return flipper.OpenBasketSource(filepath.Join(path, "baskets.txt"), tree.Dict(), stream)
	}
	if fi, err := os.Stat(filepath.Join(path, "shards")); err == nil && fi.IsDir() {
		path = filepath.Join(path, "shards")
	}
	return flipper.OpenShardDir(path, tree.Dict(), stream)
}

func loadTaxonomy(path string) (*flipper.Taxonomy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return flipper.ParseTaxonomy(f, nil)
}

func parseMinsup(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad minsup %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "flipper:", err)
	os.Exit(1)
}

// failMine reports a mining error, translating the two cancellation causes
// into plain messages: exit 124 on deadline (the timeout(1) convention) and
// 130 on interrupt (128+SIGINT).
func failMine(err error, timeout time.Duration) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "flipper: mine aborted: -timeout %s exceeded\n", timeout)
		os.Exit(124)
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "flipper: mine aborted: interrupted")
		os.Exit(130)
	}
	fail(err)
}
