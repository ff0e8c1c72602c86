// Command flipgen writes synthetic datasets (taxonomy + baskets) in the
// formats the flipper CLI and the flipperd service consume.
//
// Usage:
//
//	flipgen -out DIR [-shards 0] synthetic [-n 100000] [-width 5] [-roots 10]
//	                           [-fanout 5] [-height 4] [-items 1000] [-seed 1]
//	flipgen -out DIR [-shards 0] dataset -name groceries|census|medline [-scale 1.0] [-seed 1]
//	flipgen -out DIR [-shards 0] toy
//
// "synthetic" emits the paper's Srikant & Agrawal-style workload of
// Section 5.1; "dataset" emits one of the reality-check simulators with its
// planted patterns; "toy" emits the worked example of Figure 4. Each mode
// writes taxonomy.tsv and baskets.txt into -out, plus a README.txt stating
// the thresholds to mine with.
//
// -shards N writes the sharded on-disk layout instead of baskets.txt: a
// shards/ subdirectory holding N basket files of contiguous transaction
// ranges (shard000.txt, shard001.txt, …). Both flipper (-db DIR/shards) and
// flipperd recognize the layout and mine the shards in parallel, streaming
// them without ever materializing the whole database when -stream is set.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/flipper-mining/flipper/internal/datasets"
	"github.com/flipper-mining/flipper/internal/gen"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

func main() {
	out := flag.String("out", "", "output directory (created if missing)")
	shards := flag.Int("shards", 0, "write shards/shardNNN.txt basket shards instead of baskets.txt (0 = single file)")
	flag.Parse()
	args := flag.Args()
	if *out == "" || len(args) == 0 {
		usage()
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	switch args[0] {
	case "synthetic":
		synthetic(*out, *shards, args[1:])
	case "dataset":
		dataset(*out, *shards, args[1:])
	case "toy":
		ds := datasets.PaperToy()
		writeDataset(*out, *shards, ds.Tree, ds.DB, describe(ds))
	default:
		usage()
	}
}

func synthetic(out string, shards int, args []string) {
	fs := flag.NewFlagSet("synthetic", flag.ExitOnError)
	n := fs.Int("n", 100000, "number of transactions")
	width := fs.Float64("width", 5, "average transaction width")
	roots := fs.Int("roots", 10, "level-1 categories")
	fanout := fs.Int("fanout", 5, "children per node")
	height := fs.Int("height", 4, "taxonomy levels")
	items := fs.Int("items", 1000, "approximate leaf count (0 = untrimmed)")
	seed := fs.Int64("seed", 1, "generator seed")
	_ = fs.Parse(args)

	tree, err := gen.BuildTaxonomy(gen.TaxonomyParams{
		Roots: *roots, Fanout: *fanout, Height: *height, MaxLeaves: *items, Prefix: "i",
	})
	if err != nil {
		fail(err)
	}
	p := gen.DefaultParams()
	p.N = *n
	p.AvgWidth = *width
	p.Seed = *seed
	db, err := gen.Generate(tree, p)
	if err != nil {
		fail(err)
	}
	writeDataset(out, shards, tree, db, fmt.Sprintf(
		"synthetic dataset (Srikant & Agrawal style)\nN=%d W=%g roots=%d fanout=%d height=%d seed=%d\n"+
			"suggested: -gamma 0.3 -epsilon 0.1 -minsup 0.01,0.001,0.0005,0.0001\n",
		*n, *width, *roots, *fanout, *height, *seed))
}

func dataset(out string, shards int, args []string) {
	fs := flag.NewFlagSet("dataset", flag.ExitOnError)
	name := fs.String("name", "", "groceries, census or medline")
	scale := fs.Float64("scale", 1.0, "size multiplier vs the original dataset")
	seed := fs.Int64("seed", 1, "generator seed")
	_ = fs.Parse(args)
	ds, err := datasets.ByName(*name, *scale, *seed)
	if err != nil {
		fail(err)
	}
	writeDataset(out, shards, ds.Tree, ds.DB, describe(ds))
}

func describe(ds *datasets.Dataset) string {
	sups := make([]string, len(ds.MinSup))
	for i, v := range ds.MinSup {
		sups[i] = fmt.Sprintf("%g", v)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s simulator: %d transactions\n", ds.Name, ds.DB.Len())
	fmt.Fprintf(&b, "mine with: -gamma %g -epsilon %g -minsup %s\n", ds.Gamma, ds.Epsilon, strings.Join(sups, ","))
	fmt.Fprintf(&b, "planted flipping patterns:\n")
	for _, e := range ds.Expected {
		fmt.Fprintf(&b, "  {%s, %s} chain %s\n", e.LeafA, e.LeafB, strings.Join(e.Labels, ""))
	}
	return b.String()
}

func writeDataset(out string, shards int, tree *taxonomy.Tree, db *txdb.DB, readme string) {
	taxPath := filepath.Join(out, "taxonomy.tsv")
	f, err := os.Create(taxPath)
	if err != nil {
		fail(err)
	}
	if _, err := tree.WriteTo(f); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	// Regeneration must not leave the previous run's layout behind: a stale
	// baskets.txt would shadow freshly written shards (both loaders prefer
	// it), and stale shardNNN.txt files beyond the new count would be
	// concatenated into the database. Remove both layout paths first.
	var dbPath string
	if shards > 1 {
		dbPath = filepath.Join(out, "shards")
		if err := os.Remove(filepath.Join(out, "baskets.txt")); err != nil && !os.IsNotExist(err) {
			fail(err)
		}
		if err := os.RemoveAll(dbPath); err != nil {
			fail(err)
		}
		if err := os.MkdirAll(dbPath, 0o755); err != nil {
			fail(err)
		}
		for i, part := range txdb.Partition(db, shards) {
			if err := part.WriteBasketFile(filepath.Join(dbPath, fmt.Sprintf("shard%03d.txt", i))); err != nil {
				fail(err)
			}
		}
	} else {
		dbPath = filepath.Join(out, "baskets.txt")
		if err := os.RemoveAll(filepath.Join(out, "shards")); err != nil {
			fail(err)
		}
		if err := db.WriteBasketFile(dbPath); err != nil {
			fail(err)
		}
	}
	if err := os.WriteFile(filepath.Join(out, "README.txt"), []byte(readme), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s and %s\n", taxPath, dbPath)
}

func usage() {
	fmt.Fprintln(os.Stderr, `flipgen -out DIR [-shards 0] synthetic [flags]
flipgen -out DIR [-shards 0] dataset -name groceries|census|medline [-scale 1.0]
flipgen -out DIR [-shards 0] toy`)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "flipgen:", err)
	os.Exit(1)
}
