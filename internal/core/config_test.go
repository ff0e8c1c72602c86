package core

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/flipper-mining/flipper/internal/measure"
)

// validConfig is a configuration that passes validate(3, 100) — the base
// every rejection case below mutates.
func validConfig() Config {
	return Config{
		Measure: measure.Kulczynski, Gamma: 0.6, Epsilon: 0.35,
		MinSup: []float64{0.1, 0.1, 0.1}, Pruning: Full,
		Strategy: CountScan,
	}
}

// TestValidateRejectionMessages pins every rejection path of Engine.Validate
// with the exact message text: these strings travel over the wire verbatim
// ("invalid config: <msg>" in the flipperd 400 envelope, pinned again by the
// golden error fixtures), so rewording one is an API change that must show
// up in a diff here.
func TestValidateRejectionMessages(t *testing.T) {
	cases := []struct {
		name   string
		height int
		mutate func(*Config)
		want   string
	}{
		{"height below two", 1, func(c *Config) {}, "core: flipping patterns need a taxonomy of height ≥ 2, got 1"},
		{"invalid measure", 3, func(c *Config) { c.Measure = measure.Measure(99) }, "core: invalid measure"},
		{"gamma zero", 3, func(c *Config) { c.Gamma = 0 }, "core: gamma 0 out of (0, 1]"},
		{"gamma above one", 3, func(c *Config) { c.Gamma = 1.5 }, "core: gamma 1.5 out of (0, 1]"},
		{"negative epsilon", 3, func(c *Config) { c.Epsilon = -0.1 }, "core: epsilon -0.1 must be in [0, gamma)"},
		{"epsilon at gamma", 3, func(c *Config) { c.Epsilon = c.Gamma }, "core: epsilon 0.6 must be in [0, gamma)"},
		{"negative maxk", 3, func(c *Config) { c.MaxK = -1 }, "core: MaxK -1 negative"},
		{"negative parallelism", 3, func(c *Config) { c.Parallelism = -2 }, "core: parallelism -2 negative"},
		{"unknown strategy", 3, func(c *Config) { c.Strategy = CountStrategy(42) }, "core: unknown counting strategy"},
		{"minsupabs wrong length", 3, func(c *Config) { c.MinSupAbs = []int64{1} }, "core: MinSupAbs has 1 levels, taxonomy has 3"},
		{"minsupabs below one", 3, func(c *Config) { c.MinSupAbs = []int64{1, 0, 1} }, "core: MinSupAbs[1] = 0, want ≥ 1"},
		{"minsup wrong length", 3, func(c *Config) { c.MinSup = []float64{0.1} }, "core: MinSup has 1 levels, taxonomy has 3"},
		{"minsup out of range", 3, func(c *Config) { c.MinSup = []float64{0.1, 2.0, 0.1} }, "core: MinSup[1] = 2 out of [0, 1]"},
		{"no minsup at all", 3, func(c *Config) { c.MinSup = nil; c.MinSupAbs = nil }, "core: one of MinSup or MinSupAbs is required"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(&cfg)
			_, err := cfg.validate(tc.height, 100)
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("rejection message changed:\n  got  %q\n  want substring %q", err, tc.want)
			}
		})
	}
	valid := validConfig()
	if _, err := valid.validate(3, 100); err != nil {
		t.Errorf("valid base config rejected: %v", err)
	}
	// MinSupAbs takes precedence over MinSup when both are set, so an
	// invalid fraction list must not be reached.
	both := validConfig()
	both.MinSupAbs = []int64{2, 2, 2}
	both.MinSup = []float64{9, 9, 9}
	if _, err := both.validate(3, 100); err != nil {
		t.Errorf("MinSupAbs should shadow MinSup: %v", err)
	}
}

// TestCanonicalKeyStableAcrossFieldReordering decodes the same configuration
// from JSON documents with permuted field order and asserts the canonical
// key — the flipperd cache and single-flight identity — does not move.
// A key that depended on field order would silently split the cache.
func TestCanonicalKeyStableAcrossFieldReordering(t *testing.T) {
	docs := []string{
		`{"measure": "kulczynski", "gamma": 0.6, "epsilon": 0.35,
		  "min_sup": [0.1, 0.1, 0.1], "pruning": "flipping+tpg+sibp",
		  "strategy": "scan", "top_k": 5}`,
		`{"top_k": 5, "strategy": "scan",
		  "pruning": "flipping+tpg+sibp", "min_sup": [0.1, 0.1, 0.1],
		  "epsilon": 0.35, "gamma": 0.6, "measure": "kulczynski"}`,
		`{"strategy": "scan", "min_sup": [0.1, 0.1, 0.1], "measure": "kulczynski",
		  "top_k": 5, "gamma": 0.6, "pruning": "flipping+tpg+sibp",
		  "epsilon": 0.35}`,
	}
	keys := make([]string, len(docs))
	for i, doc := range docs {
		var cfg Config
		if err := json.Unmarshal([]byte(doc), &cfg); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		keys[i] = cfg.CanonicalKey()
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Errorf("field order changed the canonical key:\n  doc 0: %s\n  doc %d: %s", keys[0], i, keys[i])
		}
	}
}

// TestCanonicalKeyDistinguishesSemanticChanges complements the reordering
// test: any change to a semantic field must move the key, or two different
// mines would share one cache slot.
func TestCanonicalKeyDistinguishesSemanticChanges(t *testing.T) {
	base := validConfig()
	mutations := map[string]func(*Config){
		"measure": func(c *Config) { c.Measure = measure.Cosine },
		"gamma":   func(c *Config) { c.Gamma = 0.5 },
		"epsilon": func(c *Config) { c.Epsilon = 0.2 },
		"min_sup": func(c *Config) { c.MinSup = []float64{0.2, 0.1, 0.1} },
		"pruning": func(c *Config) { c.Pruning = Basic },
		"max_k":   func(c *Config) { c.MaxK = 7 },
		"top_k":   func(c *Config) { c.TopK = 3 },
	}
	seen := map[string]string{base.CanonicalKey(): "base"}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		key := cfg.CanonicalKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("mutating %s collides with %s: %s", name, prev, key)
		}
		seen[key] = name
	}
}
