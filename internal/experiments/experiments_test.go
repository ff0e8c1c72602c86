package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	return Scale{
		SyntheticN:     1500,
		SweepMax:       3000,
		GroceriesScale: 0.2,
		CensusScale:    0.1,
		MedlineScale:   0.01,
		Seed:           1,
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table3", "fig8a", "fig8b", "fig8c", "fig8d", "fig9a", "fig9b", "table4", "fig10-12", "ablation", "sharding", "topk"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%s) failed", id)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup of unknown id succeeded")
	}
}

func TestTable1Static(t *testing.T) {
	tbl, err := Table1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("table1 rows = %d", len(tbl.Rows))
	}
	// DB1 rows say positive, DB2 rows say negative; Kulc identical per pair.
	if tbl.Rows[0][6] != "positive" || tbl.Rows[1][6] != "negative" {
		t.Errorf("verdicts = %s / %s", tbl.Rows[0][6], tbl.Rows[1][6])
	}
	if tbl.Rows[0][7] != tbl.Rows[1][7] {
		t.Error("Kulc changed with N")
	}
}

func TestTable3Profiles(t *testing.T) {
	tbl, err := Table3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("profiles = %d, want 10", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "thr1" || tbl.Rows[9][0] != "thr10" {
		t.Error("profile names wrong")
	}
}

func TestRenderAndCSV(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "demo",
		Columns: []string{"A", "LongColumn"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# x — demo", "LongColumn", "note: a note", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "A,LongColumn\n") {
		t.Errorf("csv = %q", sb.String())
	}
}

func TestFig8aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic sweep")
	}
	tbl, err := Fig8a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 || len(tbl.Columns) != 5 {
		t.Fatalf("shape = %dx%d", len(tbl.Rows), len(tbl.Columns))
	}
	// All cells parse as seconds.
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				t.Fatalf("cell %q not a float", cell)
			}
		}
	}
}

func TestFig9aAndTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset sweep")
	}
	tbl, err := Fig9a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("fig9a rows = %d", len(tbl.Rows))
	}
	t4, err := Table4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t4.Rows {
		flips, err := strconv.Atoi(row[5])
		if err != nil {
			t.Fatalf("flips cell %q", row[5])
		}
		pos, _ := strconv.Atoi(row[3])
		neg, _ := strconv.Atoi(row[4])
		// The paper's observation: flips are a small subset of all labeled
		// patterns.
		if flips > pos+neg {
			t.Errorf("%s: flips %d exceed pos+neg %d", row[0], flips, pos+neg)
		}
		if flips < 1 {
			t.Errorf("%s: no flipping patterns found", row[0])
		}
	}
}

func TestShardingShape(t *testing.T) {
	tbl, err := Sharding(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// One row per shard count.
	const shardCounts = 4
	if len(tbl.Rows) != shardCounts {
		t.Fatalf("sharding rows = %d, want %d", len(tbl.Rows), shardCounts)
	}
	// Pattern counts must agree across shard counts — sharding can never
	// change the mined output.
	base := tbl.Rows[0][4]
	for _, row := range tbl.Rows[1:] {
		if row[4] != base {
			t.Errorf("%s shards found %s patterns, want %s", row[0], row[4], base)
		}
	}
}

func TestPatternsQualitative(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset sweep")
	}
	tbl, err := Patterns(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 { // 3 groceries + 2 census + 2 medline
		t.Fatalf("pattern rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[2] == "NOT FOUND" {
			t.Errorf("%s: planted pattern %s not recovered at tiny scale", row[0], row[1])
		}
	}
}
