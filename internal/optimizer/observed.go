package optimizer

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Observed is the persisted observed-profile store: what real runs
// measured, kept in one file next to the cost-model cache so later plans
// price with measurements instead of the calibration loop's figures.
// Every entry is an Average, folded in by the same sample-weighted rule.
type Observed struct {
	// Ship averages the per-task RPC ship time in nanoseconds
	// (RPCBackend.MeasuredShipNS: each round trip minus the compute time
	// the worker reported). Remote plans price shard tasks with it instead
	// of the calibrated loopback lower bound (see RPCProfileFrom), on top
	// of the task's own compute estimate.
	Ship Average `json:"ship"`
	// ShipVersion marks how Ship was measured. Samples written under any
	// other version (older builds timed the whole call, worker compute
	// included, which double-priced remote compute) are discarded on load.
	ShipVersion int `json:"ship_version,omitempty"`
	// Skip averages, per regime (see SkipRegime), the fraction of
	// document-iterations whose k-way scan the bounded K-Means kernels
	// skipped (kmeans.PruneStats.SkipRate), in [0, 1]. Plans re-price the
	// bounded kernels with it instead of the skip rate the calibration
	// loop observed on its synthetic matrix (see rule.kmEffectiveRate):
	// real corpora cluster far better or worse than the calibration
	// blobs, and the skip rate is what the bounded rates' value hinges on.
	Skip map[string]Average `json:"skip,omitempty"`
}

// Average is a sample-weighted running mean.
type Average struct {
	Mean float64 `json:"mean"`
	// Samples counts the observations folded in, capped at
	// averageSampleCap so the average stays adaptive.
	Samples int64 `json:"samples"`
}

// shipVersion is the ShipVersion of ship samples that exclude worker
// compute.
const shipVersion = 1

// averageSampleCap bounds an Average's effective history: once this many
// samples have been folded in, new observations keep at least 1/cap
// weight, so the average tracks drifting network conditions and corpora
// instead of freezing.
const averageSampleCap = 1000

// observe folds mean x over n samples into the average.
func (a *Average) observe(x float64, n int64) {
	if a.Samples <= 0 {
		a.Mean, a.Samples = x, n
	} else {
		total := a.Samples + n
		a.Mean += (x - a.Mean) * float64(n) / float64(total)
		a.Samples = total
	}
	if a.Samples > averageSampleCap {
		a.Samples = averageSampleCap
	}
}

// ObservedFile returns the path of the observed-profile file in dir,
// alongside the cost-model cache written by CostModel.Save.
func ObservedFile(dir string) string {
	return filepath.Join(dir, "hpa-observed.json")
}

// SkipRegime returns the Skip key for a bound variant (the
// kmeans.PruneVariant label, "hamerly" or "elkan") at cluster count k:
// the variant plus k rounded down to a power of two, so nearby cluster
// counts share an average while order-of-magnitude regimes stay apart.
// Skip behavior depends on both: Elkan bounds tighten with k while the
// single Hamerly bound loosens, so one global average would mislead the
// variant decision it feeds.
func SkipRegime(variant string, k int) string {
	bucket := 1
	for bucket*2 <= k {
		bucket *= 2
	}
	return fmt.Sprintf("%s-k%d", variant, bucket)
}

// ObserveShip folds a run's measured per-task ship time (averaged over n
// tasks) into Ship. Non-positive inputs are ignored.
func (o *Observed) ObserveShip(shipNS float64, n int64) {
	if shipNS > 0 && n > 0 {
		o.Ship.observe(shipNS, n)
		o.ShipVersion = shipVersion
	}
}

// ObserveSkip folds a run's measured skip rate (over n
// document-iterations) into the regime's average. Rates outside [0, 1]
// and non-positive counts are ignored.
func (o *Observed) ObserveSkip(regime string, rate float64, n int64) {
	if rate < 0 || rate > 1 || n <= 0 {
		return
	}
	if o.Skip == nil {
		o.Skip = make(map[string]Average)
	}
	a := o.Skip[regime]
	a.observe(rate, n)
	o.Skip[regime] = a
}

// SkipRate returns the regime's averaged skip rate, false when the regime
// has never been observed (or o is nil).
func (o *Observed) SkipRate(regime string) (float64, bool) {
	if o == nil {
		return 0, false
	}
	a, ok := o.Skip[regime]
	return a.Mean, ok && a.Samples > 0
}

// validate rejects out-of-range entries: negative sample counts, a
// negative ship time, or a skip rate outside [0, 1].
func (o *Observed) validate() error {
	if o.Ship.Samples < 0 || o.Ship.Mean < 0 {
		return fmt.Errorf("ship average out of range")
	}
	for regime, a := range o.Skip {
		if a.Samples < 0 || a.Mean < 0 || a.Mean > 1 {
			return fmt.Errorf("regime %q: skip average out of range", regime)
		}
	}
	return nil
}

// LoadObserved reads a persisted observed profile. A missing file is an
// error; callers treat any error as "no measured data yet". Unparsable
// files and files with any out-of-range entry are rejected whole — a
// corrupt feedback file must not poison pricing. Ship samples of another
// ShipVersion are dropped; the skip regimes load as they are.
func LoadObserved(path string) (Observed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Observed{}, err
	}
	var o Observed
	if err := json.Unmarshal(data, &o); err != nil {
		return Observed{}, fmt.Errorf("optimizer: parse %s: %w", path, err)
	}
	if err := o.validate(); err != nil {
		return Observed{}, fmt.Errorf("optimizer: %s: %w", path, err)
	}
	if o.ShipVersion != shipVersion {
		o.Ship, o.ShipVersion = Average{}, 0
	}
	return o, nil
}

// Save atomically writes the profile to path (write temp + rename).
func (o Observed) Save(path string) error {
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
