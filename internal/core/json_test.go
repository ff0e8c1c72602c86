package core

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/flipper-mining/flipper/internal/measure"
)

func TestCanonicalKeyDeterministic(t *testing.T) {
	a := DefaultConfig(3)
	b := DefaultConfig(3)
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Errorf("identical configs, different keys:\n%s\n%s", a.CanonicalKey(), b.CanonicalKey())
	}
}

func TestCanonicalKeyIgnoresExecutionKnobs(t *testing.T) {
	a := DefaultConfig(3)
	b := DefaultConfig(3)
	b.Parallelism = 7
	b.KeepCellStats = true
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Errorf("execution knobs changed the key:\n%s\n%s", a.CanonicalKey(), b.CanonicalKey())
	}
}

func TestCanonicalKeySeparatesSemanticFields(t *testing.T) {
	base := DefaultConfig(3)
	variants := []func(c *Config){
		func(c *Config) { c.Gamma = 0.5 },
		func(c *Config) { c.Epsilon = 0.05 },
		func(c *Config) { c.Measure = measure.Cosine },
		func(c *Config) { c.MinSup = []float64{0.02, 0.002, 0.0002} },
		func(c *Config) { c.MinSupAbs = []int64{5, 3, 1} },
		func(c *Config) { c.Pruning = Basic },
		func(c *Config) { c.MaxK = 3 },
		func(c *Config) { c.TopK = 10 },
	}
	seen := map[string]int{base.CanonicalKey(): -1}
	for i, mutate := range variants {
		c := base
		mutate(&c)
		key := c.CanonicalKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("variants %d and %d collide on key %s", i, prev, key)
		}
		seen[key] = i
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Measure = measure.Cosine
	cfg.Pruning = FlippingTPG
	cfg.TopK = 5
	b, err := json.Marshal(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	// Enums serialize as names, not numbers.
	for _, want := range []string{`"cosine"`, `"flipping+tpg"`, `"scan"`} {
		if !strings.Contains(text, want) {
			t.Errorf("marshalled config missing %s: %s", want, text)
		}
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.CanonicalKey() != cfg.CanonicalKey() {
		t.Errorf("round trip changed the canonical key:\n%s\n%s", cfg.CanonicalKey(), back.CanonicalKey())
	}
	if back.Measure != measure.Cosine || back.Pruning != FlippingTPG || back.Strategy != CountScan {
		t.Errorf("round trip = %+v", back)
	}
}

func TestEnumUnmarshalRejectsUnknown(t *testing.T) {
	var p PruningLevel
	if err := json.Unmarshal([]byte(`"bogus"`), &p); err == nil {
		t.Error("unknown pruning level accepted")
	}
	var s CountStrategy
	if err := json.Unmarshal([]byte(`"bogus"`), &s); err == nil {
		t.Error("unknown strategy accepted")
	}
	var m measure.Measure
	if err := json.Unmarshal([]byte(`"lift"`), &m); err == nil {
		t.Error("unknown measure accepted")
	}
}
