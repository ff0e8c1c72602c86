package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// pairTestData is a three-level taxonomy of four roots with three children
// each, plus a root z whose one leaf only the last ten transactions name. A
// database cut into contiguous shards therefore has z in its last shard
// only, and every other shard's levels lack it.
func pairTestData(t testing.TB) (*txdb.DB, *taxonomy.Tree) {
	t.Helper()
	b := taxonomy.NewBuilder(nil)
	var leaves []string
	for r := 0; r < 4; r++ {
		for m := 0; m < 3; m++ {
			for l := 0; l < 3; l++ {
				leaf := fmt.Sprintf("c%d.%d.%d", r, m, l)
				if err := b.AddPath(fmt.Sprintf("c%d", r), fmt.Sprintf("c%d.%d", r, m), leaf); err != nil {
					t.Fatal(err)
				}
				leaves = append(leaves, leaf)
			}
		}
	}
	if err := b.AddPath("z", "z.0", "z.0.0"); err != nil {
		t.Fatal(err)
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	db := txdb.New(tree.Dict())
	for i := 0; i < 220; i++ {
		var names []string
		for j := 0; j < 2+rng.Intn(4); j++ {
			names = append(names, leaves[rng.Intn(len(leaves))])
		}
		if i >= 210 {
			names = append(names, "z.0.0")
		}
		db.AddNames(names...)
	}
	return db, tree
}

// pairTestConfig mines everything frequent at least once, on three workers.
func pairTestConfig(pruning PruningLevel) Config {
	return Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.15,
		MinSupAbs: []int64{1, 1, 1}, Pruning: pruning, Strategy: CountScan,
		Parallelism: 3,
	}
}

// countOnce counts the cell from zero through miner.count and returns its
// supports and the stats that count added, the merge time aside.
func countOnce(m *miner, c *cell) ([]int64, Stats) {
	clear(c.store.Sup)
	saved := m.stats
	m.stats = Stats{}
	m.count(c)
	got := m.stats
	got.ShardMergeNs = 0
	m.stats = saved
	return slices.Clone(c.store.Sup), got
}

// doubledTable is the k-subset table of lv with every row's weight doubled:
// no pass over lv's rows agrees with it, so a count that answers twice the
// rows' supports read the table.
func doubledTable(lv *txdb.Level, k int) *txdb.SubsetTable {
	d := *lv
	d.Weights = make([]int64, len(lv.Weights))
	for r, w := range lv.Weights {
		d.Weights[r] = 2 * w
	}
	return txdb.NewSubsetTable(&d, k)
}

// twice returns every support doubled.
func twice(sup []int64) []int64 {
	out := make([]int64, len(sup))
	for i, v := range sup {
		out[i] = 2 * v
	}
	return out
}

// TestCountPairsMatchesTriePass counts every k = 2 and every k = 3 cell of a
// Full and a Basic search twice through miner.count: the first reach of
// each (level, shard, k) runs the trie pass and builds no table, the second
// builds the pair or triple table and reads it. Supports and every stat the
// count adds — DBScans, TrieNodes — must agree, on 1, 2 and 7 shards,
// including cells with a candidate item that some shard's level lacks. A
// third count over tables of doubled weights must answer doubled supports,
// which shows the second count read the tables rather than the rows.
func TestCountPairsMatchesTriePass(t *testing.T) {
	db, tree := pairTestData(t)
	H := tree.Height()
	for _, pruning := range []PruningLevel{Full, Basic} {
		for _, shards := range []int{1, 2, 7} {
			cfg := pairTestConfig(pruning)
			minSup, err := cfg.validate(H, db.Len())
			if err != nil {
				t.Fatal(err)
			}
			src := txdb.PartitionSource(db, shards)
			m := &miner{cfg: cfg, tax: tree, src: src, height: H, n: db.Len(), minSup: minSup, ctx: context.Background()}
			if err := m.bind(NewEngine(src, tree)); err != nil {
				t.Fatal(err)
			}
			S := len(m.ds.shards)
			// Every level's k = 2 cell, then every level's k = 3 cell, which
			// grows from the k = 2 cell of its level (and, in a Full search,
			// from the k = 3 cell of the level above).
			for k := 2; k <= txdb.MaxTableK; k++ {
				cells, missing := 0, 0
				for h := 1; h <= H; h++ {
					var c *cell
					switch {
					case pruning == Basic:
						c = m.aprioriCell(h, k)
					case h == 1:
						c = m.aprioriCell(1, k)
					default:
						c = m.childCell(h, k)
					}
					at := fmt.Sprintf("%v shards=%d h=%d k=%d", pruning, shards, h, k)
					if c.candidates > 0 {
						cells++
						trieSup, trieStats := countOnce(m, c)
						for s := 0; s < S; s++ {
							if m.ds.tableSlot(h, s, k).t != nil {
								t.Fatalf("%s: the first reach built shard %d's table", at, s)
							}
						}
						tableSup, tableStats := countOnce(m, c)
						for s := 0; s < S; s++ {
							tab := m.ds.tableSlot(h, s, k).t
							if tab == nil {
								t.Fatalf("%s: the second reach left shard %d without a table", at, s)
							}
							for e := 0; e < c.store.Len(); e++ {
								for _, id := range c.store.Items(int32(e)) {
									if tab.Rank(id) < 0 {
										missing++
									}
								}
							}
						}
						if !slices.Equal(tableSup, trieSup) {
							t.Fatalf("%s: table supports %v, trie pass %v", at, tableSup, trieSup)
						}
						if !reflect.DeepEqual(tableStats, trieStats) {
							t.Fatalf("%s: table stats %+v, trie pass %+v", at, tableStats, trieStats)
						}
						real := make([]*txdb.SubsetTable, S)
						for s := range real {
							lt := m.ds.tableSlot(h, s, k)
							real[s], lt.t = lt.t, doubledTable(m.ds.levels[s][h], k)
						}
						if got, _ := countOnce(m, c); !slices.Equal(got, twice(trieSup)) {
							t.Fatalf("%s: doubled tables answered %v for supports %v", at, got, trieSup)
						}
						for s := range real {
							m.ds.tableSlot(h, s, k).t = real[s]
						}
					}
					// Finishing counts the cell once more, into the cleared slab,
					// so the next cells grow from the labels a mine would give.
					clear(c.store.Sup)
					if pruning == Basic {
						m.finishBasicCell(c)
					} else {
						m.finishCell(c)
					}
					m.rows[h][k] = c
				}
				if cells < 2 {
					t.Errorf("%v shards=%d k=%d: only %d cells had candidates", pruning, shards, k, cells)
				}
				if shards > 1 && missing == 0 {
					t.Errorf("%v shards=%d k=%d: no candidate item was missing from any shard", pruning, shards, k)
				}
			}
			m.release()
		}
	}
}

// TestEngineBuildsPairTablesOnSecondMine pins when the pair and triple
// tables appear: the first mine on an engine scans every k = 2 and k = 3
// cell and builds nothing — so a one-shot Mine, which is one mine on a
// fresh engine, builds no table — the second builds each (level, shard,
// k)'s table and reads it, and the third reads it. The three results are
// identical apart from the volatile stats.
func TestEngineBuildsPairTablesOnSecondMine(t *testing.T) {
	db, tree := pairTestData(t)
	for _, pruning := range []PruningLevel{Full, Basic} {
		for _, shards := range []int{1, 3} {
			cfg := pairTestConfig(pruning)
			eng := NewEngine(txdb.PartitionSource(db, shards), tree)
			var want []byte
			for run := 1; run <= 3; run++ {
				res, err := eng.Mine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := scrubbedJSON(t, res, tree)
				if run == 1 {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("%v shards=%d: mine %d diverged from the first:\n%s\n%s", pruning, shards, run, want, got)
				}
				ds, err := eng.dataFor(cfg)
				if err != nil {
					t.Fatal(err)
				}
				reached := map[int]int{} // (level, shard) slots reached, by k
				for h := 1; h <= tree.Height(); h++ {
					for s := 0; s < shards; s++ {
						for k := 2; k <= txdb.MaxTableK; k++ {
							lt := ds.tableSlot(h, s, k)
							reaches := lt.reaches.Load()
							if reaches == 0 {
								continue // a level whose cell of this k was empty
							}
							reached[k]++
							if reaches != int64(run) {
								t.Fatalf("%v shards=%d mine %d: (h=%d, shard %d, k=%d) reached %d times", pruning, shards, run, h, s, k, reaches)
							}
							if built := lt.t != nil; built != (run > 1) {
								t.Fatalf("%v shards=%d mine %d: (h=%d, shard %d, k=%d) built=%v", pruning, shards, run, h, s, k, built)
							}
						}
					}
				}
				for k := 2; k <= txdb.MaxTableK; k++ {
					if reached[k] < 2*shards {
						t.Fatalf("%v shards=%d k=%d: only %d (level, shard) pairs reached", pruning, shards, k, reached[k])
					}
				}
			}
		}
	}
}

// TestCountShardPairTable sends the same k = 2 and k = 3 scan units to one
// engine three times per (level, shard): the first answer comes from the
// trie pass, the second builds the table and reads it, the third reads it.
// All three must be identical, for candidates whose IDs lie outside the
// level too: a node of another level and IDs below and above every item of
// the level. A fourth answer, over a table of doubled weights, must double,
// which shows the unit reads the table.
func TestCountShardPairTable(t *testing.T) {
	db, tree := pairTestData(t)
	ctx := context.Background()
	H := tree.Height()
	top := itemset.ID(tree.NodeCount() + 50)
	supported := map[int]int64{}
	for _, shards := range []int{1, 3} {
		cfg := pairTestConfig(Full)
		eng := NewEngine(txdb.PartitionSource(db, shards), tree)
		for h := 1; h <= H; h++ {
			nodes := tree.NodesAtLevel(h)
			other := tree.NodesAtLevel(1 + h%H)
			last := nodes[len(nodes)-1]
			units := map[int][]itemset.Set{
				2: {
					itemset.New(nodes[0], last),
					itemset.New(nodes[1], nodes[2]),
					itemset.New(nodes[1], other[0]), // a node of another level
					itemset.New(nodes[0], top),      // an ID above every node
					itemset.New(other[1], top),      // no item of the level
				},
				3: {
					itemset.New(nodes[0], nodes[1], last),
					itemset.New(nodes[1], nodes[2], nodes[3]),
					itemset.New(nodes[0], nodes[2], nodes[3]),
					itemset.New(nodes[1], nodes[2], other[0]),
					itemset.New(nodes[0], nodes[1], top),
					itemset.New(other[1], other[2], top),
				},
			}
			if h > 1 {
				// ID 0 is the first root, below every item of the lower levels.
				units[2] = append(units[2], itemset.New(0, nodes[2]))
				units[3] = append(units[3], itemset.New(0, nodes[2], nodes[3]))
			}
			for k := 2; k <= txdb.MaxTableK; k++ {
				for s := 0; s < shards; s++ {
					u := ShardUnit{Level: h, K: k, Shard: s, Candidates: units[k]}
					at := fmt.Sprintf("shards=%d h=%d k=%d shard %d", shards, h, k, s)
					var first ShardTally
					for reach := 1; reach <= 3; reach++ {
						got, err := eng.CountShard(ctx, u)
						if err != nil {
							t.Fatal(err)
						}
						if reach == 1 {
							first = got
						} else if !reflect.DeepEqual(got, first) {
							t.Fatalf("%s: reach %d answered %+v, the trie pass %+v", at, reach, got, first)
						}
					}
					ds, err := eng.dataFor(cfg)
					if err != nil {
						t.Fatal(err)
					}
					lt := ds.tableSlot(h, s, k)
					if lt.t == nil {
						t.Fatalf("%s: no table after three reaches", at)
					}
					lt.t = doubledTable(ds.levels[s][h], k)
					got, err := eng.CountShard(ctx, u)
					if err != nil {
						t.Fatal(err)
					}
					if want := twice(first.Supports); !slices.Equal(got.Supports, want) {
						t.Fatalf("%s: a doubled table answered %v, want %v", at, got.Supports, want)
					}
					for _, v := range first.Supports {
						supported[k] += v
					}
				}
			}
		}
	}
	for k := 2; k <= txdb.MaxTableK; k++ {
		if supported[k] == 0 {
			t.Fatalf("k=%d: every unit answered zero supports; the comparisons were vacuous", k)
		}
	}
}

// TestConcurrentFirstMinesSharePairTables starts the first mines of two
// engines, one unsharded and one over three shards, together, so the
// reaches that scan, build and read each table race one another; every
// result must equal a cold one-shot mine's. The CI race job runs it under
// the race detector.
func TestConcurrentFirstMinesSharePairTables(t *testing.T) {
	db, tree := pairTestData(t)
	sharded := txdb.PartitionSource(db, 3)
	one, three := NewEngine(db, tree), NewEngine(sharded, tree)
	jobs := []struct {
		eng *Engine
		src txdb.Source
		cfg Config
	}{
		{one, db, pairTestConfig(Full)},
		{one, db, pairTestConfig(Basic)},
		{three, sharded, pairTestConfig(Full)},
	}
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		res, err := Mine(j.src, tree, j.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = scrubbedJSON(t, res, tree)
	}
	const rounds = 4
	results := make([]*Result, rounds*len(jobs))
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for r := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := jobs[r%len(jobs)]
			results[r], errs[r] = j.eng.Mine(j.cfg)
		}()
	}
	wg.Wait()
	for r, res := range results {
		if errs[r] != nil {
			t.Fatal(errs[r])
		}
		i := r % len(jobs)
		if got := scrubbedJSON(t, res, tree); !bytes.Equal(got, want[i]) {
			t.Errorf("job %d: a concurrent mine diverged:\n%s\n%s", i, want[i], got)
		}
	}
}
