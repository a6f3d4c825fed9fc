package atpg

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
)

// readCSV writes the Result's CSV and parses it back, checking one row
// per fault plus the header, and returns the rows with a column index.
func readCSV(t *testing.T, res *Result) ([][]string, map[string]int) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(res.Faults) {
		t.Fatalf("CSV has %d rows, want %d faults + header", len(rows), len(res.Faults))
	}
	col := make(map[string]int, len(rows[0]))
	for i, name := range rows[0] {
		col[name] = i
	}
	for _, name := range []string{"fault", "status", "sequence", "dropped", "follows"} {
		if _, ok := col[name]; !ok {
			t.Fatalf("CSV header misses %q: %v", name, rows[0])
		}
	}
	return rows, col
}

// TestWriteCSVShape checks the CSV behind tdatpg -csv for shape and
// consistency with the Result: every explicitly tested fault carries a
// sequence, and their count is Result.Explicit.
func TestWriteCSVShape(t *testing.T) {
	res := mustRunTest(t, mustBenchmark(t, "s27"), Config{})
	rows, col := readCSV(t, res)
	explicit := 0
	for _, row := range rows[1:] {
		if row[col["status"]] == string(StatusTested) {
			explicit++
			if row[col["sequence"]] == "" {
				t.Fatalf("tested fault %s lacks a sequence", row[col["fault"]])
			}
		}
	}
	if explicit != res.Explicit {
		t.Fatalf("CSV explicit %d != Result %d", explicit, res.Explicit)
	}
}

// TestCSVRoundTripCompacted pins the CSV of a compacted run: the dropped
// and follows columns written for a Result with dropped and spliced
// sequences must parse back to exactly the Result's drop set and Follows
// markers.
func TestCSVRoundTripCompacted(t *testing.T) {
	res := mustRunTest(t, mustBenchmark(t, "s386"), Config{Compact: true})
	st := res.Compaction
	if st == nil || !st.Complete {
		t.Fatalf("compaction missing or incomplete despite Config.Compact: %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatal("no dropped sequences on s386; round-trip test has no signal")
	}
	if st.Splices == 0 {
		t.Log("no splices accepted on s386; follows round-trip covers the empty case only")
	}
	rows, col := readCSV(t, res)

	gotDropped := make(map[string]bool)
	gotFollows := make(map[string]string)
	for _, rec := range rows[1:] {
		fault := rec[col["fault"]]
		if d := rec[col["dropped"]]; d != "" {
			v, err := strconv.ParseBool(d)
			if err != nil {
				t.Fatalf("fault %s: unparsable dropped column %q", fault, d)
			}
			if v {
				gotDropped[fault] = true
			}
		}
		if f := rec[col["follows"]]; f != "" {
			gotFollows[fault] = f
		}
	}

	wantDropped, wantFollows := 0, 0
	for _, fr := range res.Faults {
		if fr.Seq == nil {
			continue
		}
		if fr.Seq.Dropped {
			wantDropped++
			if !gotDropped[fr.Fault] {
				t.Errorf("dropped sequence %s not marked in the CSV", fr.Fault)
			}
		} else if gotDropped[fr.Fault] {
			t.Errorf("kept sequence %s marked dropped in the CSV", fr.Fault)
		}
		if fr.Seq.Follows != "" {
			wantFollows++
			if got := gotFollows[fr.Fault]; got != fr.Seq.Follows {
				t.Errorf("spliced sequence %s: CSV follows %q, want %q", fr.Fault, got, fr.Seq.Follows)
			}
		} else if _, ok := gotFollows[fr.Fault]; ok {
			t.Errorf("unspliced sequence %s has a follows marker in the CSV", fr.Fault)
		}
	}
	if len(gotDropped) != wantDropped {
		t.Errorf("CSV marks %d dropped sequences, Result has %d", len(gotDropped), wantDropped)
	}
	if len(gotFollows) != wantFollows {
		t.Errorf("CSV marks %d spliced sequences, Result has %d", len(gotFollows), wantFollows)
	}
	if wantFollows != st.Splices {
		t.Errorf("Result carries %d Follows markers, compaction reports %d splices", wantFollows, st.Splices)
	}
	if st.Dropped != wantDropped {
		t.Errorf("compaction reports %d drops, Result carries %d", st.Dropped, wantDropped)
	}
}
