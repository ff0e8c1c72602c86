package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/flipper-mining/flipper/internal/datasets"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// writeDataDir lays the paper-toy dataset out on disk the way flipgen does:
// dir/toy/{taxonomy.tsv, baskets.txt}, plus distractors LoadDir must skip.
func writeDataDir(t *testing.T) string {
	t.Helper()
	toy := datasets.PaperToy()
	dir := t.TempDir()
	sub := filepath.Join(dir, "toy")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Create(filepath.Join(sub, taxonomyFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := toy.Tree.WriteTo(tf); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	bf, err := os.Create(filepath.Join(sub, basketsFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := toy.DB.WriteBaskets(bf); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	// Distractors: a plain file and a dataset-less subdirectory.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("notes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "scratch"), 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestLoadDir(t *testing.T) {
	dir := writeDataDir(t)
	for _, stream := range []bool{false, true} {
		reg := NewRegistry()
		names, err := reg.LoadDir(dir, stream)
		if err != nil {
			t.Fatalf("stream=%v: %v", stream, err)
		}
		if len(names) != 1 || names[0] != "toy" {
			t.Fatalf("stream=%v: names = %v", stream, names)
		}
		d, ok := reg.Get("toy")
		if !ok || d.Src.Len() != 10 || d.Tree.Height() != 3 {
			t.Fatalf("stream=%v: dataset = %+v", stream, d)
		}
		if _, isFile := d.Src.(*txdb.FileSource); isFile != stream {
			t.Errorf("stream=%v: source type %T", stream, d.Src)
		}
		if info := reg.List()[0]; info.Stream != stream {
			t.Errorf("stream=%v: Info.Stream = %v", stream, info.Stream)
		}
	}
}

// TestLoadDirMinesEquivalently pins that both load modes feed the engine the
// same data: the toy flip is found either way.
func TestLoadDirMinesEquivalently(t *testing.T) {
	dir := writeDataDir(t)
	toy := datasets.PaperToy()
	// Stats legitimately differ between the modes (scan counts, timings), so
	// compare the pattern payloads only.
	var patterns []string
	for _, stream := range []bool{false, true} {
		reg := NewRegistry()
		if _, err := reg.LoadDir(dir, stream); err != nil {
			t.Fatal(err)
		}
		d, _ := reg.Get("toy")
		cfg := d.DefaultConfig()
		cfg.Gamma, cfg.Epsilon, cfg.MinSup = toy.Gamma, toy.Epsilon, toy.MinSup
		q := NewQueue(1, 4, 100, NewCache(4))
		j, err := q.Submit(d, JobMine, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		q.Close() // drains the worker
		v, _ := q.Get(j.ID)
		if v.Status != StatusDone {
			t.Fatalf("stream=%v: job = %+v", stream, v)
		}
		var res struct {
			Patterns json.RawMessage `json:"patterns"`
		}
		if err := json.Unmarshal(v.Result, &res); err != nil {
			t.Fatal(err)
		}
		patterns = append(patterns, string(res.Patterns))
	}
	if patterns[0] != patterns[1] || !strings.Contains(patterns[0], "a11") {
		t.Errorf("materialized and streaming runs disagree:\n%s\nvs\n%s", patterns[0], patterns[1])
	}
}

// writeShardedDataDir lays the paper-toy dataset out in the sharded layout:
// dir/toy/{taxonomy.tsv, shards/shardNNN.txt}.
func writeShardedDataDir(t *testing.T, shards int) string {
	t.Helper()
	toy := datasets.PaperToy()
	dir := t.TempDir()
	sub := filepath.Join(dir, "toy")
	if err := os.MkdirAll(filepath.Join(sub, shardsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Create(filepath.Join(sub, taxonomyFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := toy.Tree.WriteTo(tf); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	for i, part := range txdb.Partition(toy.DB, shards) {
		bf, err := os.Create(filepath.Join(sub, shardsDir, fmt.Sprintf("shard%03d.txt", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := part.WriteBaskets(bf); err != nil {
			t.Fatal(err)
		}
		bf.Close()
	}
	return dir
}

// TestLoadDirShardedLayout registers a shards/ dataset in both storage
// modes and pins that it mines the same patterns as the single-file layout.
func TestLoadDirShardedLayout(t *testing.T) {
	flat := writeDataDir(t)
	sharded := writeShardedDataDir(t, 3)
	toy := datasets.PaperToy()
	var patterns []string
	for _, dir := range []string{flat, sharded} {
		for _, stream := range []bool{false, true} {
			reg := NewRegistry()
			names, err := reg.LoadDir(dir, stream)
			if err != nil {
				t.Fatalf("dir=%s stream=%v: %v", dir, stream, err)
			}
			if len(names) != 1 || names[0] != "toy" {
				t.Fatalf("dir=%s stream=%v: names = %v", dir, stream, names)
			}
			d, _ := reg.Get("toy")
			if d.Src.Len() != 10 {
				t.Fatalf("dir=%s stream=%v: %d transactions, want 10", dir, stream, d.Src.Len())
			}
			wantShards := 1
			if dir == sharded {
				wantShards = 3
				if _, ok := d.Src.(*txdb.ShardedSource); !ok {
					t.Fatalf("sharded layout loaded as %T", d.Src)
				}
			}
			if d.Shards() != wantShards {
				t.Fatalf("dir=%s stream=%v: Shards() = %d, want %d", dir, stream, d.Shards(), wantShards)
			}
			if info := reg.List()[0]; info.Shards != wantShards || info.Stream != stream {
				t.Fatalf("dir=%s stream=%v: Info.Shards = %d, Info.Stream = %v, want %d, %v",
					dir, stream, info.Shards, info.Stream, wantShards, stream)
			}
			cfg := d.DefaultConfig()
			cfg.Gamma, cfg.Epsilon, cfg.MinSup = toy.Gamma, toy.Epsilon, toy.MinSup
			q := NewQueue(1, 4, 100, NewCache(4))
			j, err := q.Submit(d, JobMine, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			q.Close()
			v, _ := q.Get(j.ID)
			if v.Status != StatusDone {
				t.Fatalf("dir=%s stream=%v: job = %+v", dir, stream, v)
			}
			var res struct {
				Patterns json.RawMessage `json:"patterns"`
			}
			if err := json.Unmarshal(v.Result, &res); err != nil {
				t.Fatal(err)
			}
			patterns = append(patterns, string(res.Patterns))
		}
	}
	for i := 1; i < len(patterns); i++ {
		if patterns[i] != patterns[0] {
			t.Fatalf("sharded/streaming layout %d mined different patterns:\n%s\nvs\n%s", i, patterns[0], patterns[i])
		}
	}
}

// TestLoadDirBasketsWinOverShards pins the precedence rule: when both
// layouts exist, baskets.txt is authoritative.
func TestLoadDirBasketsWinOverShards(t *testing.T) {
	dir := writeDataDir(t)
	sub := filepath.Join(dir, "toy", shardsDir)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	// A stray shard that would change the dataset if it were loaded.
	if err := os.WriteFile(filepath.Join(sub, "shard000.txt"), []byte("milk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir, false); err != nil {
		t.Fatal(err)
	}
	d, _ := reg.Get("toy")
	if d.Src.Len() != 10 || d.Shards() != 1 {
		t.Fatalf("baskets.txt did not win: %d tx, %d shards", d.Src.Len(), d.Shards())
	}
}

func TestRegistryErrors(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add(&Dataset{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	toy := datasets.PaperToy()
	if err := reg.AddMemory("toy", toy.DB, toy.Tree); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddMemory("toy", toy.DB, toy.Tree); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := reg.LoadDir("/nonexistent-dir", false); err == nil {
		t.Error("missing dir accepted")
	}
}
