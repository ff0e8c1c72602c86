package experiments

import (
	"strconv"
	"testing"
)

// TestTopKShape is the flipbench acceptance of the anchored path: on the
// dense planted workload every anchored row must recover the exact top-K
// (recall 1.000) while counting fewer candidates than the full mine.
func TestTopKShape(t *testing.T) {
	tbl, err := TopK(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// 1 exact row + 2 anchored rows.
	if len(tbl.Rows) != 3 {
		t.Fatalf("topk rows = %d, want 3", len(tbl.Rows))
	}
	if tbl.Rows[0][1] != "exact" || tbl.Rows[0][4] != "1.000" {
		t.Fatalf("exact row malformed: %v", tbl.Rows[0])
	}
	exactCands, err := strconv.Atoi(tbl.Rows[0][3])
	if err != nil || exactCands == 0 {
		t.Fatalf("exact candidates cell %q", tbl.Rows[0][3])
	}
	for _, row := range tbl.Rows[1:] {
		cands, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("%s/%s: candidates cell %q", row[0], row[1], row[3])
		}
		if cands >= exactCands {
			t.Errorf("%s/%s: anchored run counted %d candidates, exact full mine counted %d — anchoring saved nothing",
				row[0], row[1], cands, exactCands)
		}
		if row[4] != "1.000" {
			t.Errorf("%s: anchored recall = %s, want 1.000 (the exactness theorem)", row[0], row[4])
		}
	}
}
