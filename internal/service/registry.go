package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Dataset file names inside one registry directory entry — the layout
// flipgen writes. A dataset holds its transactions either as one
// baskets.txt or as a shards/ subdirectory of per-shard basket files
// (flipgen -shards); the sharded layout is loaded as a txdb.ShardedSource,
// so counting fans a worker pool out over the shard files — with -stream
// the shards are scanned in parallel straight from disk (out-of-core
// mining).
const (
	taxonomyFile = "taxonomy.tsv"
	basketsFile  = "baskets.txt"
	shardsDir    = "shards"
)

// Dataset is one named taxonomy/basket pair the service can mine.
type Dataset struct {
	// Name is the registry key, unique within a Registry.
	Name string
	// Tree is the taxonomy, extended (Figure 3 variant B) when the on-disk
	// hierarchy is unbalanced so mining never rejects it.
	Tree *taxonomy.Tree
	// Src supplies the transactions: an in-memory txdb.DB, a
	// txdb.FileSource re-reading the basket file on every pass when the
	// registry runs in streaming mode, or a txdb.ShardedSource when the
	// dataset uses the sharded on-disk layout.
	Src txdb.Source
	// Stream records whether Src re-reads disk on every scan.
	Stream bool

	engOnce sync.Once
	eng     *core.Engine
}

// Engine returns the dataset's persistent mining engine, created on first
// use. All jobs over the dataset share it, so materialized level views,
// bitmap/tid indexes and counting scratch built for one job are reused by
// the next — repeat mines over a registered dataset pay data preparation
// once, not per request. The engine is safe for concurrent jobs.
func (d *Dataset) Engine() *core.Engine {
	d.engOnce.Do(func() {
		d.eng = core.NewEngine(d.Src, d.Tree)
	})
	return d.eng
}

// Shards returns how many transaction shards the dataset's source fans
// counting out over (1 for unsharded sources).
func (d *Dataset) Shards() int {
	if ss, ok := d.Src.(*txdb.ShardedSource); ok {
		return ss.NumShards()
	}
	return 1
}

// DefaultConfig returns the paper-default mining configuration for the
// dataset's taxonomy height; job submissions overlay their overrides on it.
// Streaming datasets default to non-materialized counting so the memory
// promise of txdb.FileSource is kept end to end.
func (d *Dataset) DefaultConfig() core.Config {
	cfg := core.DefaultConfig(d.Tree.Height())
	if d.Stream {
		cfg.Materialize = false
	}
	return cfg
}

// Info is the wire description of one registered dataset.
type Info struct {
	Name          string      `json:"name"`
	Transactions  int         `json:"transactions"`
	Height        int         `json:"height"`
	Nodes         int         `json:"nodes"`
	Leaves        int         `json:"leaves"`
	Stream        bool        `json:"stream"`
	Shards        int         `json:"shards"`
	DefaultConfig core.Config `json:"default_config"`
}

// Registry holds the datasets a service instance serves, keyed by name.
// All methods are safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	sets map[string]*Dataset
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sets: make(map[string]*Dataset)}
}

// Add registers a dataset under its name. Names must be unique.
func (r *Registry) Add(d *Dataset) error {
	if d.Name == "" {
		return fmt.Errorf("service: dataset name must not be empty")
	}
	if d.Tree == nil || d.Src == nil {
		return fmt.Errorf("service: dataset %q needs a taxonomy and a source", d.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.sets[d.Name]; dup {
		return fmt.Errorf("service: dataset %q already registered", d.Name)
	}
	r.sets[d.Name] = d
	return nil
}

// AddMemory registers an in-memory database under name — the path tests and
// embedders use (e.g. to serve a simdata simulator directly).
func (r *Registry) AddMemory(name string, db *txdb.DB, tree *taxonomy.Tree) error {
	return r.Add(&Dataset{Name: name, Tree: tree, Src: db})
}

// LoadDir scans dir for subdirectories holding a taxonomy.tsv next to
// either a baskets.txt or a shards/ directory of per-shard basket files
// (the two flipgen output layouts) and registers each under its directory
// name. With stream set, baskets stay on disk behind txdb.FileSources;
// otherwise they are materialized into memory once at load time. Sharded
// datasets load as txdb.ShardedSources, so every mine over them counts
// shard-parallel. Subdirectories without the files are skipped silently, so
// a data dir can hold READMEs and scratch files. Returns the names
// registered.
func (r *Registry) LoadDir(dir string, stream bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: data dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		taxPath := filepath.Join(sub, taxonomyFile)
		if _, err := os.Stat(taxPath); err != nil {
			continue
		}
		// baskets.txt wins over shards/ so a dataset never silently changes
		// content by gaining a shards/ directory; the sharded layout is only
		// consulted when the single-file one is absent.
		dbPath := filepath.Join(sub, basketsFile)
		var shardPaths []string
		if _, err := os.Stat(dbPath); err != nil {
			shardPaths, err = txdb.ShardDirFiles(filepath.Join(sub, shardsDir))
			if err != nil && !os.IsNotExist(err) {
				// A shards/ directory that exists but cannot be read must
				// fail loudly, like a broken baskets.txt — not silently
				// drop the dataset from the registry.
				return names, fmt.Errorf("service: dataset %q: %w", e.Name(), err)
			}
			if len(shardPaths) == 0 {
				continue
			}
			dbPath = ""
		}
		d, err := loadDataset(e.Name(), taxPath, dbPath, shardPaths, stream)
		if err != nil {
			return names, fmt.Errorf("service: dataset %q: %w", e.Name(), err)
		}
		if err := r.Add(d); err != nil {
			return names, err
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// loadDataset reads one taxonomy/basket dataset from disk. Exactly one of
// dbPath (single basket file) or shardPaths (sharded layout; dbPath empty)
// supplies the transactions; LoadDir resolves which layout applies.
func loadDataset(name, taxPath, dbPath string, shardPaths []string, stream bool) (*Dataset, error) {
	tf, err := os.Open(taxPath)
	if err != nil {
		return nil, err
	}
	tree, err := taxonomy.Parse(tf, nil)
	tf.Close()
	if err != nil {
		return nil, err
	}
	if !tree.IsBalanced() {
		tree = tree.Extend()
	}
	d := &Dataset{
		Name:   name,
		Tree:   tree,
		Stream: stream,
	}
	switch {
	case len(shardPaths) > 0:
		ss, err := txdb.OpenShards(shardPaths, tree.Dict(), stream)
		if err != nil {
			return nil, err
		}
		d.Src = ss
	default:
		s, err := txdb.OpenBasketSource(dbPath, tree.Dict(), stream)
		if err != nil {
			return nil, err
		}
		d.Src = s
	}
	return d, nil
}

// Get looks a dataset up by name.
func (r *Registry) Get(name string) (*Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.sets[name]
	return d, ok
}

// Len returns the number of registered datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sets)
}

// List describes every registered dataset, sorted by name.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.sets))
	for _, d := range r.sets {
		out = append(out, Info{
			Name:          d.Name,
			Transactions:  d.Src.Len(),
			Height:        d.Tree.Height(),
			Nodes:         d.Tree.NodeCount(),
			Leaves:        len(d.Tree.Leaves()),
			Stream:        d.Stream,
			Shards:        d.Shards(),
			DefaultConfig: d.DefaultConfig(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
