package optimizer

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hpa/internal/kmeans"
)

func TestSkipRegimeBuckets(t *testing.T) {
	cases := []struct {
		variant string
		k       int
		want    string
	}{
		{"hamerly", 8, "hamerly-k8"},
		{"hamerly", 13, "hamerly-k8"}, // rounds down to a power of two
		{"elkan", 16, "elkan-k16"},
		{"elkan", 31, "elkan-k16"},
		{"elkan", 32, "elkan-k32"},
		{"hamerly", 1, "hamerly-k1"},
		{"hamerly", 0, "hamerly-k1"}, // degenerate k still gets a bucket
	}
	for _, tc := range cases {
		if got := SkipRegime(tc.variant, tc.k); got != tc.want {
			t.Errorf("SkipRegime(%q, %d) = %q, want %q", tc.variant, tc.k, got, tc.want)
		}
	}
}

func TestShipEWMAObserve(t *testing.T) {
	var o Observed
	o.ObserveShip(100, 10)
	if o.Ship != (Average{Mean: 100, Samples: 10}) {
		t.Fatalf("first observation: %+v", o.Ship)
	}
	// Sample-weighted blend: (100×10 + 200×10) / 20 = 150.
	o.ObserveShip(200, 10)
	if math.Abs(o.Ship.Mean-150) > 1e-9 || o.Ship.Samples != 20 {
		t.Fatalf("blended observation: %+v", o.Ship)
	}
	// Garbage in, no change out.
	before := o.Ship
	o.ObserveShip(-5, 10)
	o.ObserveShip(100, 0)
	if o.Ship != before {
		t.Fatalf("non-positive inputs mutated the average: %+v", o.Ship)
	}
	// The sample cap keeps the average adaptive: after capping, a new
	// observation still moves the mean by at least 1/(cap+n) of the gap.
	o.ObserveShip(100, 10_000)
	if o.Ship.Samples != 1000 {
		t.Fatalf("sample cap not applied: %+v", o.Ship)
	}
	prev := o.Ship.Mean
	o.ObserveShip(prev*10, 100)
	if o.Ship.Mean <= prev {
		t.Fatalf("capped average stopped adapting: %v -> %v", prev, o.Ship.Mean)
	}
	if len(o.Skip) != 0 {
		t.Fatalf("ship observations touched the skip regimes: %+v", o.Skip)
	}
}

func TestSkipEWMAObserve(t *testing.T) {
	var o Observed
	o.ObserveSkip("elkan-k16", 0.8, 10)
	if o.Skip["elkan-k16"] != (Average{Mean: 0.8, Samples: 10}) {
		t.Fatalf("first observation: %+v", o.Skip)
	}
	// Sample-weighted blend: (0.8×10 + 0.4×10) / 20 = 0.6.
	o.ObserveSkip("elkan-k16", 0.4, 10)
	if rate, ok := o.SkipRate("elkan-k16"); !ok || math.Abs(rate-0.6) > 1e-9 || o.Skip["elkan-k16"].Samples != 20 {
		t.Fatalf("blended observation: %+v", o.Skip)
	}
	// Regimes are independent.
	o.ObserveSkip("hamerly-k8", 0.1, 5)
	if rate, _ := o.SkipRate("elkan-k16"); math.Abs(rate-0.6) > 1e-9 {
		t.Fatalf("foreign regime mutated elkan-k16: %+v", o.Skip)
	}
	// Garbage in, no change out.
	before := o.Skip["elkan-k16"]
	o.ObserveSkip("elkan-k16", -0.1, 10)
	o.ObserveSkip("elkan-k16", 1.5, 10)
	o.ObserveSkip("elkan-k16", 0.5, 0)
	if o.Skip["elkan-k16"] != before {
		t.Fatalf("out-of-range inputs mutated the average: %+v", o.Skip)
	}
	// The sample cap keeps the average adaptive.
	o.ObserveSkip("elkan-k16", 0.6, 100_000)
	if a := o.Skip["elkan-k16"]; a.Samples != 1000 {
		t.Fatalf("sample cap not applied: %+v", a)
	}
	prev, _ := o.SkipRate("elkan-k16")
	o.ObserveSkip("elkan-k16", 1.0, 100)
	if rate, _ := o.SkipRate("elkan-k16"); rate <= prev {
		t.Fatalf("capped average stopped adapting: %v -> %v", prev, rate)
	}
	// An unobserved regime reports absent, including on a nil receiver.
	if _, ok := o.SkipRate("hamerly-k64"); ok {
		t.Fatal("unobserved regime reported present")
	}
	var nilO *Observed
	if _, ok := nilO.SkipRate("elkan-k16"); ok {
		t.Fatal("nil profile reported a regime")
	}
}

// loadRejects writes body to path and asserts LoadObserved rejects the
// whole file, returning no partial state.
func loadRejects(t *testing.T, path, name, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if o, err := LoadObserved(path); err == nil {
		t.Errorf("%s: loaded %+v", name, o)
	} else if !reflect.DeepEqual(o, Observed{}) {
		t.Errorf("%s: rejected load returned partial state %+v", name, o)
	}
}

// TestShipEWMASaveLoadRoundTrip: the ship average round-trips through the
// observed-profile file; corrupt and negative entries reject the file.
func TestShipEWMASaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := ObservedFile(dir)
	if filepath.Dir(path) != dir || !strings.HasSuffix(path, "hpa-observed.json") {
		t.Fatalf("ObservedFile(%q) = %q", dir, path)
	}
	if _, err := LoadObserved(path); err == nil {
		t.Fatal("loading a missing file did not error")
	}
	var want Observed
	want.ObserveShip(48_000_000, 18)
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadObserved(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	loadRejects(t, path, "corrupt", "{")
	loadRejects(t, path, "negative ship time", `{"ship":{"mean":-1,"samples":3}}`)
	loadRejects(t, path, "negative ship samples", `{"ship":{"mean":5,"samples":-1}}`)
}

// TestSkipEWMASaveLoadRoundTrip: skip regimes share the file with the
// ship average; an out-of-range regime rejects the whole file.
func TestSkipEWMASaveLoadRoundTrip(t *testing.T) {
	path := ObservedFile(t.TempDir())
	var want Observed
	want.ObserveShip(2_000, 4)
	want.ObserveSkip("elkan-k16", 0.85, 12_000)
	want.ObserveSkip("hamerly-k8", 0.4, 900)
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadObserved(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	loadRejects(t, path, "skip rate above one", `{"skip":{"elkan-k16":{"mean":1.5,"samples":3}}}`)
	loadRejects(t, path, "negative skip rate", `{"skip":{"elkan-k16":{"mean":-0.5,"samples":3}}}`)
	loadRejects(t, path, "negative skip samples",
		`{"ship":{"mean":5,"samples":1},"skip":{"elkan-k16":{"mean":0.5,"samples":-1}}}`)
}

// TestSkipFrom: skip pricing draws only on what the observed-profile file
// recorded — nothing from a missing file or a nil profile, nothing from a
// profile that only holds ship data, the rate from a recorded regime.
func TestSkipFrom(t *testing.T) {
	path := ObservedFile(t.TempDir())
	var nilO *Observed
	if _, ok := nilO.SkipRate("elkan-k16"); ok {
		t.Fatal("nil profile reported a skip rate")
	}
	o, err := LoadObserved(path)
	if err == nil {
		t.Fatal("missing file loaded")
	}
	if _, ok := o.SkipRate("elkan-k16"); ok {
		t.Fatal("missing file reported a skip rate")
	}
	var w Observed
	w.ObserveShip(1_000, 3)
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	if o, err = LoadObserved(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.SkipRate("elkan-k16"); ok {
		t.Fatal("regime-free profile reported a skip rate")
	}
	w.ObserveSkip("elkan-k16", 0.9, 100)
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	if o, err = LoadObserved(path); err != nil {
		t.Fatal(err)
	}
	if rate, ok := o.SkipRate("elkan-k16"); !ok || rate != 0.9 {
		t.Fatalf("recorded regime: rate %v ok %v", rate, ok)
	}
}

// TestRPCProfileFrom: the measured-ship feedback loop — a recorded ship
// average reprices the profile and relabels Explain's ship source; none
// (or the escape hatch) keeps the calibrated loopback bound.
func TestRPCProfileFrom(t *testing.T) {
	m := &CostModel{RPCShipNS: 50_000}

	var o Observed
	o.ObserveSkip("elkan-k16", 0.5, 10) // skip data alone prices nothing
	bp := RPCProfileFrom(3, m, &o)
	if bp.ShipNS != 50_000 || bp.ShipSource != "loopback-bound" {
		t.Fatalf("without ship data: %+v", bp)
	}
	if !strings.Contains(bp.String(), "ship=loopback-bound") {
		t.Errorf("String() lacks ship source: %s", bp)
	}

	o.ObserveShip(2_000_000, 12)
	bp = RPCProfileFrom(3, m, &o)
	if bp.ShipNS != 2_000_000 || bp.ShipSource != "measured" {
		t.Fatalf("with ship data: %+v", bp)
	}
	if !strings.Contains(bp.String(), "ship=measured") {
		t.Errorf("String() lacks measured label: %s", bp)
	}

	// The escape hatch: a nil profile skips the lookup.
	bp = RPCProfileFrom(3, m, nil)
	if bp.ShipNS != 50_000 || bp.ShipSource != "loopback-bound" {
		t.Fatalf("escape hatch ignored: %+v", bp)
	}

	// Local profiles stay unlabeled.
	if s := LocalProfile().String(); s != "local" {
		t.Errorf("LocalProfile().String() = %q", s)
	}
}

// TestMeasuredSkipPricing: the measured-skip feedback loop. The calibrated
// rates favor Hamerly, so PruneAuto re-decides away from the k-threshold's
// Elkan pick; a recorded skip profile where Elkan skips nearly everything and
// Hamerly barely skips must flip that decision back — and the annotation
// must say which skip source priced it.
func TestMeasuredSkipPricing(t *testing.T) {
	m := testModel()
	m.KMeansAssignNS = 2
	m.KMeansAssignPrunedNS = 0.9
	m.KMeansAssignElkanNS = 1.0
	m.KMeansPrunedSkipRate = 0.6
	m.KMeansElkanSkipRate = 0.55
	opts := kmeans.Options{K: 16, Prune: kmeans.PruneAuto}

	// Calibrated pricing: hamerly (0.9) beats elkan (1.0), so auto
	// re-decides away from the k>=16 Elkan default.
	r := &rule{st: testStats(), m: m, opts: Options{Procs: 4}}
	v, pin, note := r.kmPruneResolved(opts)
	if v != kmeans.VariantHamerly || pin != kmeans.PruneOn {
		t.Fatalf("calibrated resolution: variant=%v pin=%v (%s)", v, pin, note)
	}
	if !strings.Contains(note, "skip=calibrated") {
		t.Errorf("calibrated note lacks skip source: %q", note)
	}

	// Measured pricing: elkan skips 95%, hamerly only 20%. Effective rates
	// decompose the calibrated ones — overhead 0.9−2·0.4 = 0.1 (hamerly)
	// and 1.0−2·0.45 = 0.1 (elkan) — so hamerly prices at 2·0.8+0.1 = 1.7
	// and elkan at 2·0.05+0.1 = 0.2, flipping the auto decision back.
	var skip Observed
	skip.ObserveSkip(SkipRegime("elkan", 16), 0.95, 1000)
	skip.ObserveSkip(SkipRegime("hamerly", 16), 0.2, 1000)
	r = &rule{st: testStats(), m: m, opts: Options{Procs: 4, Skip: &skip}}

	if eff, src := r.kmEffectiveRate(kmeans.VariantHamerly, 16); math.Abs(eff-1.7) > 1e-9 || src != "measured" {
		t.Errorf("hamerly effective rate = %v (%s), want 1.7 (measured)", eff, src)
	}
	if eff, src := r.kmEffectiveRate(kmeans.VariantElkan, 16); math.Abs(eff-0.2) > 1e-9 || src != "measured" {
		t.Errorf("elkan effective rate = %v (%s), want 0.2 (measured)", eff, src)
	}
	v, pin, note = r.kmPruneResolved(opts)
	if v != kmeans.VariantElkan || pin != kmeans.PruneAuto {
		t.Fatalf("measured resolution: variant=%v pin=%v (%s)", v, pin, note)
	}
	if !strings.Contains(note, "skip=measured") {
		t.Errorf("measured note lacks skip source: %q", note)
	}

	// A regime never observed keeps calibrated pricing.
	if eff, src := r.kmEffectiveRate(kmeans.VariantElkan, 64); eff != 1.0 || src != "calibrated" {
		t.Errorf("unobserved regime priced %v (%s), want 1.0 (calibrated)", eff, src)
	}
	// The unpruned variant has no skip source.
	if eff, src := r.kmEffectiveRate(kmeans.VariantOff, 16); eff != 2 || src != "" {
		t.Errorf("off variant priced %v (%q)", eff, src)
	}
	// Models without calibrated skip/bounded rates ignore the measured rates.
	bare := testModel()
	r = &rule{st: testStats(), m: bare, opts: Options{Procs: 4, Skip: &skip}}
	if eff, src := r.kmEffectiveRate(kmeans.VariantElkan, 16); eff != bare.KMeansAssignNS || src != "calibrated" {
		t.Errorf("unbounded model priced %v (%s)", eff, src)
	}
}

// TestShipSamplesOfOlderBuildsDiscarded: ship samples persisted without
// the current ShipVersion were measured with worker compute included, so
// loading drops them — and only them: the skip regimes survive.
func TestShipSamplesOfOlderBuildsDiscarded(t *testing.T) {
	path := ObservedFile(t.TempDir())
	old := `{"ship":{"mean":12500000,"samples":40},"skip":{"elkan-k16":{"mean":0.5,"samples":7}}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := LoadObserved(path)
	if err != nil {
		t.Fatal(err)
	}
	if o.Ship != (Average{}) {
		t.Errorf("compute-inclusive ship samples survived the load: %+v", o.Ship)
	}
	if rate, ok := o.SkipRate("elkan-k16"); !ok || rate != 0.5 {
		t.Errorf("skip regime lost with the ship samples: %v, %v", rate, ok)
	}
	if bp := RPCProfileFrom(2, &CostModel{RPCShipNS: 9000}, &o); bp.ShipSource != "loopback-bound" {
		t.Errorf("discarded samples still price the plan: %+v", bp)
	}
}
