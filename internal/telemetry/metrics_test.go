// Tests for the metric table: every Snapshot leaf is declared by exactly
// one row, the /metrics exposition derived from the table matches its
// golden, and the committed bench baselines round-trip through Snapshot.
package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var (
	int64Type = reflect.TypeOf(int64(0))
	histType  = reflect.TypeOf(HistSnapshot{})
)

// snapshotLeaves walks s and maps the address of every int64 and
// HistSnapshot leaf to its JSON path (object keys joined with "."). Any
// other leaf type fails the test: the table can only bind these two.
func snapshotLeaves(t *testing.T, s *Snapshot) map[uintptr]string {
	t.Helper()
	leaves := map[uintptr]string{}
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := 0; i < v.NumField(); i++ {
			f, sf := v.Field(i), v.Type().Field(i)
			key := prefix + strings.Split(sf.Tag.Get("json"), ",")[0]
			switch {
			case sf.Type == int64Type || sf.Type == histType:
				leaves[f.Addr().Pointer()] = key
			case sf.Type.Kind() == reflect.Struct:
				walk(f, key+".")
			default:
				t.Fatalf("Snapshot leaf %s has type %v, which no table row can bind", key, sf.Type)
			}
		}
	}
	walk(reflect.ValueOf(s).Elem(), "")
	return leaves
}

// TestTableBindsEverySnapshotLeaf enforces "one Snapshot field, one table
// row": each int64 and HistSnapshot leaf of Snapshot (Phases and Rules
// included) is bound to exactly one row, the row's name is the leaf's JSON
// key, and no two rows share a JSON path or a Prometheus series. Phase and
// rule rows share their labeled family, so a series is family plus label.
// It also checks that each Stats slot (Scalar, Hist, PhaseID, RuleID)
// belongs to exactly one row of the matching kind.
func TestTableBindsEverySnapshotLeaf(t *testing.T) {
	var s Snapshot
	leaves := snapshotLeaves(t, &s)
	bound := map[uintptr]bool{}
	series := map[string]bool{}
	slots := map[string]bool{}
	for i := range table {
		m := &table[i]
		var addr uintptr
		var slot string
		switch {
		case m.val != nil && m.hist == nil && m.kind != kindLatency && m.kind != kindHist:
			addr = reflect.ValueOf(m.val(&s)).Pointer()
		case m.hist != nil && m.val == nil && (m.kind == kindLatency || m.kind == kindHist):
			addr = reflect.ValueOf(m.hist(&s)).Pointer()
		default:
			t.Fatalf("row %q: accessor does not match its kind", m.name)
		}
		path, ok := leaves[addr]
		if !ok {
			t.Fatalf("row %q binds no Snapshot leaf", m.name)
		}
		if bound[addr] {
			t.Fatalf("leaf %s is bound by two rows", path)
		}
		bound[addr] = true
		key := path[strings.LastIndex(path, ".")+1:]
		if m.name != key {
			t.Errorf("row %q binds leaf %s, whose JSON key is %q", m.name, path, key)
		}
		switch m.kind {
		case kindPhase:
			slot = fmt.Sprintf("phase %d", m.id)
			if !strings.HasPrefix(path, "phases.") {
				t.Errorf("phase row %q binds %s, outside phases", m.name, path)
			}
		case kindRule:
			slot = fmt.Sprintf("rule %d", m.id)
			if !strings.HasPrefix(path, "rule_ns.") {
				t.Errorf("rule row %q binds %s, outside rule_ns", m.name, path)
			}
		case kindLatency, kindHist:
			slot = fmt.Sprintf("hist %d", m.id)
		default:
			slot = fmt.Sprintf("scalar %d", m.id)
		}
		if slots[slot] {
			t.Errorf("row %q shares Stats slot %s with another row", m.name, slot)
		}
		slots[slot] = true
		fam, _ := m.family()
		if m.kind == kindPhase || m.kind == kindRule {
			fam += "{" + m.stem() + "}"
		}
		if series[fam] {
			t.Errorf("row %q repeats Prometheus series %s", m.name, fam)
		}
		series[fam] = true
	}
	for addr, path := range leaves {
		if !bound[addr] {
			t.Errorf("Snapshot leaf %s has no table row", path)
		}
	}
	if want := int(numScalars) + int(numHists) + NumPhases + NumRules; len(slots) != want {
		t.Errorf("table fills %d Stats slots, want %d", len(slots), want)
	}
	for p := PhaseID(0); p < PhaseID(NumPhases); p++ {
		if p.String() == "unknown" {
			t.Errorf("phase %d has no row", p)
		}
	}
	for r := RuleID(0); r < RuleID(NumRules); r++ {
		if r.String() == "unknown" {
			t.Errorf("rule %d has no row", r)
		}
	}
}

// fullSnapshot returns a Snapshot whose every int64 and HistSnapshot leaf
// is non-zero and distinct, filled in field order.
func fullSnapshot() Snapshot {
	var s Snapshot
	var k int64
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch {
			case f.Type() == int64Type:
				k++
				f.SetInt(k * 1_000_003)
			case f.Type() == histType:
				k++
				f.Set(reflect.ValueOf(HistSnapshot{Count: k + 3, Sum: k * 12_345_678, Buckets: []int64{0, 1, k, 0, 2}}))
			case f.Kind() == reflect.Struct:
				fill(f)
			}
		}
	}
	fill(reflect.ValueOf(&s).Elem())
	return s
}

// TestWritePromGolden pins the exposition byte for byte — every family,
// its order, and each number's format — for a snapshot with every leaf set.
func TestWritePromGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "writeprom_full.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteProm(&b, fullSnapshot()); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("WriteProm output differs from testdata/writeprom_full.golden:\n%s", got)
	}
}

// TestStatsRoundTripsFullSnapshot folds a snapshot with every leaf set into
// a Stats and reads it back: each row's live slot must hold its own leaf.
func TestStatsRoundTripsFullSnapshot(t *testing.T) {
	var st Stats
	full := fullSnapshot()
	st.AddSnapshot(full)
	if got := st.Snapshot(); !reflect.DeepEqual(got, full) {
		t.Errorf("Stats round trip changed the snapshot:\n got  %+v\n want %+v", got, full)
	}
	if got := full.Add(Snapshot{}); !reflect.DeepEqual(got, full) {
		t.Errorf("zero snapshot is not the identity of Add")
	}
	if got := full.Add(full); got.HeapHighWaterBytes != full.HeapHighWaterBytes || got.Nodes != 2*full.Nodes {
		t.Errorf("Add merged heap %d and nodes %d; want max %d and sum %d",
			got.HeapHighWaterBytes, got.Nodes, full.HeapHighWaterBytes, 2*full.Nodes)
	}
}

// TestBenchCountersRoundTrip decodes the counters of every record in every
// committed BENCH_*.json into Snapshot and re-encodes them: the JSON value
// must be unchanged, so the table lost no key the baselines carry.
func TestBenchCountersRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json found")
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Records []struct {
				Counters json.RawMessage `json:"counters"`
			} `json:"records"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(doc.Records) == 0 {
			t.Errorf("%s: no records", path)
		}
		for i, rec := range doc.Records {
			var snap Snapshot
			if err := json.Unmarshal(rec.Counters, &snap); err != nil {
				t.Fatalf("%s record %d: %v", path, i, err)
			}
			again, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var want, got any
			if err := json.Unmarshal(rec.Counters, &want); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(again, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s record %d: counters changed in the round trip:\n got  %s\n want %s",
					path, i, again, rec.Counters)
			}
		}
	}
}
