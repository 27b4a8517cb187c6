package experiments

import (
	"strconv"
	"strings"
	"testing"

	"zccloud/internal/availability"
	"zccloud/internal/stranded"
)

// quickLab returns a lab with the reduced preset shared by the tests.
func quickLab() *Lab { return NewLab(Quick(1)) }

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:      "fig0",
		Title:   "demo",
		Columns: []string{"a", "b"},
	}
	tb.AddRow("x", 1.23456)
	tb.AddRow(42, 12345.6)
	tb.AddNote("note %d", 7)
	md := tb.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "note 7") {
		t.Errorf("markdown rendering wrong:\n%s", md)
	}
	if !strings.Contains(md, "1.23") {
		t.Errorf("float trim wrong:\n%s", md)
	}
	if !strings.Contains(md, "12346") {
		t.Errorf("large float should render without decimals:\n%s", md)
	}
	txt := tb.Text()
	if !strings.Contains(txt, "fig0") || !strings.Contains(txt, "note: note 7") {
		t.Errorf("text rendering wrong:\n%s", txt)
	}
}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	// every paper table and figure present
	for _, id := range []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15",
	} {
		if !seen[id] {
			t.Errorf("missing paper artifact %s", id)
		}
	}
	if _, err := ByID("fig5"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.WorkloadDays != 364 || o.MarketDays != 834 || o.WindSites != 200 || o.MiraNodes != 49152 {
		t.Errorf("defaults wrong: %+v", o)
	}
	q := Quick(3)
	if q.Seed != 3 || q.WorkloadDays >= 364 {
		t.Errorf("quick preset wrong: %+v", q)
	}
}

func TestStaticTables(t *testing.T) {
	l := quickLab()
	for _, id := range []string{"table2", "table4", "table5", "table7"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := e.Run(l)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
	}
}

func TestAdmissionQuick(t *testing.T) {
	tb, err := Admission(quickLab())
	if err != nil {
		t.Fatal(err)
	}
	// 2 slack levels × ("none" + three forecast biases).
	if len(tb.Rows) != 8 {
		t.Fatalf("admission rows = %d, want 8", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[0] == "none" && row[4] != "0" {
			t.Errorf("admit-all sheds %s jobs", row[4])
		}
		goodput, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatalf("goodput %q: %v", row[6], err)
		}
		if goodput < 0 || goodput > 100 {
			t.Errorf("goodput %v outside [0, 100]", goodput)
		}
	}
}

func TestTable1Quick(t *testing.T) {
	tb, err := Table1(quickLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 8 {
		t.Errorf("table1 rows = %d", len(tb.Rows))
	}
}

// TestPeriodicFiguresQuick runs the Section IV experiments at reduced
// scale and checks the paper's qualitative claims hold.
func TestPeriodicFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation experiment")
	}
	l := quickLab()
	f5, err := Fig5(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Rows) < 8 {
		t.Errorf("fig5 rows = %d", len(f5.Rows))
	}
	f6, err := Fig6(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != 2 {
		t.Errorf("fig6 rows = %d", len(f6.Rows))
	}
	f7, err := Fig7(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Rows) != 4 {
		t.Errorf("fig7 rows = %d", len(f7.Rows))
	}
}

func TestFig8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("ten simulations")
	}
	tb, err := Fig8(quickLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 10 { // Mira + 3 sizes × 3 duties
		t.Errorf("fig8 rows = %d, want 10", len(tb.Rows))
	}
}

func TestStrandedFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("market synthesis")
	}
	l := quickLab()
	for _, run := range []func(*Lab) (*Table, error){Table3, Fig9, Fig10, Fig11, Fig12, Table6} {
		tb, err := run(l)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty", tb.ID)
		}
	}
	// the analysis is memoized: best sites should be consistent
	b1, err := l.BestSite(stranded.Model{Kind: stranded.NetPrice, Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := l.BestSite(stranded.Model{Kind: stranded.NetPrice, Threshold: 0})
	if b1.Site != b2.Site {
		t.Error("memoized analysis returned different best sites")
	}
}

func TestSPDrivenQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulations")
	}
	l := quickLab()
	f13, err := Fig13(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13.Rows) != 4 {
		t.Errorf("fig13 rows = %d", len(f13.Rows))
	}
	f14, err := Fig14(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(f14.Rows) != 5 { // Mira + 4 models
		t.Errorf("fig14 rows = %d", len(f14.Rows))
	}
}

func TestExtensionsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulations")
	}
	l := quickLab()
	ms, err := Multisite(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Rows) == 0 {
		t.Error("multisite empty")
	}
	kr, err := KillRequeue(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(kr.Rows) != 2 {
		t.Errorf("killrequeue rows = %d", len(kr.Rows))
	}
}

func TestPredictionQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulations")
	}
	tb, err := Prediction(quickLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 && len(tb.Rows) != 0 {
		t.Errorf("prediction rows = %d, want 5 (or 0 when no intervals)", len(tb.Rows))
	}
}

func TestBackfillAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("four simulations")
	}
	tb, err := BackfillAblation(quickLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("backfill rows = %d", len(tb.Rows))
	}
}

func TestEconomicsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("market synthesis")
	}
	tb, err := Economics(quickLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 3 {
		t.Fatalf("economics rows = %d", len(tb.Rows))
	}
}

func TestCAISOQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("market synthesis")
	}
	tb, err := CAISO(quickLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 { // 4 models × {solar, wind}
		t.Fatalf("caiso rows = %d, want 8", len(tb.Rows))
	}
}

func TestResilienceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("seven simulations")
	}
	opt := Quick(1)
	opt.FaultMTBFHours = 6 // single-MTBF sweep keeps the test at 7 sims
	opt.RetryLimit = 4
	tb, err := Resilience(NewLab(opt))
	if err != nil {
		t.Fatal(err)
	}
	// baseline + 4 checkpoint intervals + 2 policy rows
	if len(tb.Rows) != 7 {
		t.Fatalf("resilience rows = %d, want 7", len(tb.Rows))
	}
	kills := 0
	for _, r := range tb.Rows[1:] {
		n, err := strconv.Atoi(r[5])
		if err != nil {
			t.Fatalf("killed cell %q: %v", r[5], err)
		}
		kills += n
	}
	if kills == 0 {
		t.Error("fault rows injected no kills")
	}
	// Determinism: same options, fresh lab, identical table.
	again, err := Resilience(NewLab(opt))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Markdown() != again.Markdown() {
		t.Error("resilience experiment is not deterministic")
	}
}

func TestBurstinessAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("six simulations")
	}
	tb, err := BurstinessAblation(quickLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("burstiness rows = %d", len(tb.Rows))
	}
}

func TestBestSiteAvailabilityTiling(t *testing.T) {
	if testing.Short() {
		t.Skip("market synthesis")
	}
	// Quick preset has MarketDays 60 < WorkloadDays 28? No: 60 > 28, so
	// build a lab where the market is shorter than the workload to cover
	// the tiling path.
	l := NewLab(Options{Seed: 2, WorkloadDays: 30, MarketDays: 10, WindSites: 20})
	model := stranded.Model{Kind: stranded.NetPrice, Threshold: 0}
	for name, avail := range map[string]func() (*availability.IntervalTrace, error){
		"best site":   func() (*availability.IntervalTrace, error) { return l.BestSiteAvailability(model) },
		"top 3 sites": func() (*availability.IntervalTrace, error) { return l.MultiSiteAvailability(model, 3) },
	} {
		av, err := avail()
		if err != nil {
			t.Fatal(err)
		}
		ws := av.Windows()
		if len(ws) == 0 {
			t.Logf("%s: no SP intervals in a 10-day window for this seed", name)
			continue
		}
		last := ws[len(ws)-1]
		if float64(last.End) < 10*86400 {
			t.Errorf("%s: windows were not tiled past the market span", name)
		}
	}
}
