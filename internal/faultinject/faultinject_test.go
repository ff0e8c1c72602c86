package faultinject

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/experiments"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// fingerprint reduces a mining result to its observable output — patterns
// with chains, supports, correlations and labels — for byte comparison.
func fingerprint(t *testing.T, res *core.Result) string {
	t.Helper()
	b, err := json.Marshal(res.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// buildWorkload returns a dense dataset for the fault tests to mine.
func buildWorkload(t *testing.T) (*txdb.DB, *taxonomy.Tree) {
	t.Helper()
	db, tree, err := experiments.DenseWorkload(300, 6, 4, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	return db, tree
}

// testConfig mines with scan counting, the one backend that runs fully out
// of core: every counting pass of a basket file re-reads disk.
func testConfig() core.Config {
	return core.Config{
		Measure:   measure.Kulczynski,
		Gamma:     0.3,
		Epsilon:   0.1,
		MinSupAbs: []int64{2, 1},
		Pruning:   core.Full,
		Strategy:  core.CountScan,
	}
}

// openFaultyShards writes db's partition into `shards` basket files — the
// out-of-core layout — and opens each as a FileSource wrapped with its own
// deterministic injector (one injector per shard keeps the schedule
// replayable under the parallel shard pool). One shard is the file itself,
// more are composed into a ShardedSource.
func openFaultyShards(t *testing.T, db *txdb.DB, tree *taxonomy.Tree, shards int, plan Plan) (txdb.Source, []*Injector) {
	t.Helper()
	dir := t.TempDir()
	injectors := make([]*Injector, 0, shards)
	srcs := make([]txdb.Source, 0, shards)
	for i, part := range txdb.Partition(db, shards) {
		path := filepath.Join(dir, fmt.Sprintf("shard%03d.txt", i))
		if err := part.WriteBasketFile(path); err != nil {
			t.Fatal(err)
		}
		fs, err := txdb.OpenFile(path, tree.Dict())
		if err != nil {
			t.Fatal(err)
		}
		inj := New(Plan{
			Seed:       plan.Seed + int64(i*31),
			FailEveryN: plan.FailEveryN,
			MaxFaults:  plan.MaxFaults,
			ShortReads: plan.ShortReads,
		})
		fs.SetReaderWrapper(inj.Reader)
		fs.SetRetry(txdb.RetryPolicy{Attempts: 8})
		injectors = append(injectors, inj)
		srcs = append(srcs, fs)
	}
	if len(srcs) == 1 {
		return srcs[0], injectors
	}
	ss, err := txdb.NewSharded(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	return ss, injectors
}

// TestFaultInjectedEquivalence is the acceptance property of the retry
// layer: over shard counts 1, 2 and 7, mining an out-of-core source whose
// reads fail, truncate and stall on a seeded schedule streams to output
// byte-identical to the fault-free in-memory run.
func TestFaultInjectedEquivalence(t *testing.T) {
	db, tree := buildWorkload(t)
	cfg := testConfig()
	base, err := core.Mine(db, tree, cfg)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want := fingerprint(t, base)
	for _, shards := range []int{1, 2, 7} {
		src, injectors := openFaultyShards(t, db, tree, shards, Plan{
			Seed:       42,
			FailEveryN: 4,
			ShortReads: true,
		})
		if !txdb.Streams(src) {
			t.Fatalf("shards=%d: the faulty basket files would not stream", shards)
		}
		res, err := core.Mine(src, tree, cfg)
		if err != nil {
			t.Fatalf("shards=%d under faults: %v", shards, err)
		}
		if got := fingerprint(t, res); got != want {
			t.Fatalf("shards=%d diverged under faults.\nwant:\n%s\ngot:\n%s", shards, want, got)
		}
		faults := 0
		for _, inj := range injectors {
			_, f := inj.Stats()
			faults += f
		}
		if faults == 0 {
			t.Fatalf("shards=%d: no faults injected — the test proved nothing", shards)
		}
	}
}

// TestHardScanFaultFailsMine pins the other side of the contract: a
// non-transient scan failure must fail the mine, not silently degrade.
func TestHardScanFaultFailsMine(t *testing.T) {
	db, tree := buildWorkload(t)
	hard := errors.New("shard corrupted")
	src := &Source{Inner: db, FailAt: 50, Err: hard}
	if _, err := core.Mine(src, tree, testConfig()); !errors.Is(err, hard) {
		t.Fatalf("mine over hard-failing source: err = %v, want wrapped %v", err, hard)
	}
}

// TestInjectorDeterminism replays the same seed over the same read
// sequence and checks the fault schedule is identical.
func TestInjectorDeterminism(t *testing.T) {
	run := func() []int {
		inj := New(Plan{Seed: 7, FailEveryN: 3, ShortReads: true})
		r := inj.Reader(bytes.NewReader(bytes.Repeat([]byte("x"), 4096)))
		var faultReads []int
		buf := make([]byte, 64)
		for {
			_, err := r.Read(buf)
			var te *TransientError
			if errors.As(err, &te) {
				faultReads = append(faultReads, te.Read)
				continue
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return faultReads
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults fired")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("schedules diverged: %v vs %v", a, b)
	}
}

// TestMaxFaultsCap pins the fault budget: injection stops at MaxFaults.
func TestMaxFaultsCap(t *testing.T) {
	inj := New(Plan{Seed: 1, FailEveryN: 1, MaxFaults: 3})
	r := inj.Reader(bytes.NewReader(bytes.Repeat([]byte("x"), 1024)))
	buf := make([]byte, 16)
	faults := 0
	for {
		_, err := r.Read(buf)
		var te *TransientError
		if errors.As(err, &te) {
			faults++
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if faults != 3 {
		t.Fatalf("injected %d faults, want exactly 3", faults)
	}
}
