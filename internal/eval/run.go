package eval

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/offload"
	"repro/internal/scenario"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/telemetry/trace"
	"repro/internal/walker"
)

// SchemeSeries is one scheme's per-epoch record along a walk. Err is
// NaN at epochs where the scheme was unavailable.
type SchemeSeries struct {
	Err     []float64
	Avail   []bool
	PredErr []float64
	Conf    []float64
}

// Errors returns the available (non-NaN) errors.
func (s *SchemeSeries) Errors() []float64 {
	out := make([]float64, 0, len(s.Err))
	for i, e := range s.Err {
		if s.Avail[i] {
			out = append(out, e)
		}
	}
	return out
}

// PathRun is the complete record of one evaluated walk.
type PathRun struct {
	Place string
	Path  string

	Truth  []geo.Point
	DistM  []float64 // true distance from the start per epoch
	Region []string  // region name per epoch
	Env    []core.EnvClass

	Schemes map[string]*SchemeSeries

	UniLoc1   []float64
	UniLoc2   []float64
	Oracle    []float64
	GlobalBMA []float64
	ALoc      []float64

	Selected     []string // UniLoc1's choice per epoch
	OracleChoice []string
	GPSOn        []bool

	// Energy accounting over the walk (joules per consumer; see
	// Table IV). "uniloc" includes transmission energy; "uniloc-nogps"
	// is UniLoc with the GPS radio never granted.
	EnergyJ   map[string]float64
	DurationS float64
	BytesUp   int
	BytesDown int
}

// RunConfig tunes a path run.
type RunConfig struct {
	Walker    walker.Config
	Seed      int64
	NoGPS     bool // deny GPS entirely (for the UniLoc w/o GPS energy row)
	Calibrate bool // attach online device-offset calibrators (Fig. 8d)
	// Framework passes extra options to the UniLoc framework
	// (weighting-mode and pruning ablations).
	Framework []core.Option
	// WrapSchemes, when set, rewrites the scheme set before the
	// framework is built — the hook fault-injection decorators
	// (internal/faultinject) use to kill or sabotage schemes mid-walk.
	WrapSchemes func([]schemes.Scheme) []schemes.Scheme
	// Faults, when set, maps every sensed snapshot before the framework
	// sees it (scan loss, GPS outages, IMU glitches, ...). It must not
	// mutate its input.
	Faults func(*sensing.Snapshot) *sensing.Snapshot
}

// RunPath walks one path with the full UniLoc stack and every
// individual scheme, recording all per-epoch outcomes.
func RunPath(a *scenario.Assets, path scenario.Path, tr *Trained, cfg RunConfig) (*PathRun, error) {
	w := a.Place.World
	wkRnd := rand.New(rand.NewSource(cfg.Seed))
	fwRnd := rand.New(rand.NewSource(cfg.Seed + 1))

	ss := a.Schemes(fwRnd)
	if cfg.Calibrate {
		for _, s := range ss {
			if fp, ok := s.(*schemes.Fingerprinting); ok {
				fp.SetCalibrator(schemes.NewCalibrator())
			}
		}
	}
	if cfg.WrapSchemes != nil {
		ss = cfg.WrapSchemes(ss)
	}
	fw, err := core.NewFramework(ss, tr.Models, cfg.Framework...)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	// A standalone GPS instance evaluates the GPS scheme with its
	// radio always on (outdoors), independent of UniLoc's gating.
	gpsAlone := schemes.NewGPS(w.Proj)

	wcfg := cfg.Walker
	if wcfg.WiFi.Exponent == 0 {
		wcfg = a.DefaultWalkerConfig()
	}
	wk := walker.New(w, path.Line, wcfg, wkRnd)
	start, _ := path.Line.At(0)
	fw.Reset(start)

	run := &PathRun{
		Place:   a.Place.Name,
		Path:    path.Name,
		Schemes: make(map[string]*SchemeSeries, len(ss)),
		EnergyJ: make(map[string]float64),
	}
	for _, s := range ss {
		run.Schemes[s.Name()] = &SchemeSeries{}
	}

	acct := energy.NewAccountant(energy.DefaultPowerModel())

	for !wk.Done() {
		gpsOn := fw.GPSWanted() && !cfg.NoGPS
		snap, truth := wk.Next(true) // sample every sensor; gate below
		if cfg.Faults != nil {
			snap = cfg.Faults(snap)
		}
		full := *snap
		if !gpsOn {
			snap.GNSS = nil
			snap.GPSEnabled = false
		}
		res := fw.Step(snap)

		run.Truth = append(run.Truth, truth)
		run.DistM = append(run.DistM, wk.Distance())
		regName := "outside"
		if r := w.RegionAt(truth); r != nil {
			regName = r.Name
		}
		run.Region = append(run.Region, regName)
		envTruth := core.EnvOutdoor
		if w.Indoor(truth) {
			envTruth = core.EnvIndoor
		}
		run.Env = append(run.Env, envTruth)
		run.GPSOn = append(run.GPSOn, gpsOn)

		// Individual schemes. GPS comes from the standalone instance
		// so the gating decision does not hide its curve.
		oracleErr := math.NaN()
		oracleName := ""
		for i, sr := range res.Schemes {
			series := run.Schemes[sr.Name]
			e := math.NaN()
			avail := sr.Available
			pos := sr.Pos
			if sr.Name == schemes.NameGPS {
				est := gpsAlone.Estimate(&full)
				avail = est.OK
				pos = est.Pos
			}
			if avail {
				e = pos.Dist(truth)
				if math.IsNaN(oracleErr) || e < oracleErr {
					oracleErr = e
					oracleName = sr.Name
				}
			}
			series.Err = append(series.Err, e)
			series.Avail = append(series.Avail, avail)
			series.PredErr = append(series.PredErr, res.Schemes[i].PredErr)
			series.Conf = append(series.Conf, res.Schemes[i].Conf)
		}

		// Ensembles and baselines.
		u1, u2 := math.NaN(), math.NaN()
		sel := ""
		if res.OK {
			u1 = res.Best.Dist(truth)
			u2 = res.BMA.Dist(truth)
			sel = res.Schemes[res.BestIdx].Name
		}
		run.UniLoc1 = append(run.UniLoc1, u1)
		run.UniLoc2 = append(run.UniLoc2, u2)
		run.Selected = append(run.Selected, sel)
		run.Oracle = append(run.Oracle, oracleErr)
		run.OracleChoice = append(run.OracleChoice, oracleName)

		gErr := math.NaN()
		if gp, ok := core.CombineFixed(res.Schemes, tr.Global[res.Env]); ok {
			gErr = gp.Dist(truth)
		}
		run.GlobalBMA = append(run.GlobalBMA, gErr)

		aErr := math.NaN()
		if idx, ok := tr.ALoc.Select(res.Schemes, res.Env); ok {
			aErr = res.Schemes[idx].Pos.Dist(truth)
		}
		run.ALoc = append(run.ALoc, aErr)

		// Energy accounting.
		up, down := chargeEpoch(acct, gpsOn, envTruth, snap)
		run.BytesUp += up
		run.BytesDown += down
	}

	run.DurationS = float64(wk.Epoch()) * sensing.EpochPeriod.Seconds()
	for _, consumer := range acct.Consumers() {
		run.EnergyJ[consumer] = acct.EnergyJ(consumer)
	}
	return run, nil
}

// chargeEpoch charges every consumer for one epoch and returns the
// offload byte counts.
func chargeEpoch(acct *energy.Accountant, gpsOn bool, envTruth core.EnvClass, snap *sensing.Snapshot) (upBytes, downBytes int) {
	dt := sensing.EpochPeriod
	// Individual schemes, each run standalone.
	acct.AddSensors(schemes.NameMotion, []string{schemes.SensorIMU}, dt)
	acct.AddSensors(schemes.NameWiFi, []string{schemes.SensorWiFi}, dt)
	acct.AddSensors(schemes.NameCellular, []string{schemes.SensorCell}, dt)
	acct.AddSensors(schemes.NameFusion, []string{schemes.SensorIMU, schemes.SensorWiFi}, dt)
	if envTruth == core.EnvOutdoor {
		// Standalone GPS is on outdoors (turned off under roofs even
		// when standalone, per Table IV's setup).
		acct.AddSensors(schemes.NameGPS, []string{schemes.SensorGPS}, dt)
	}

	// UniLoc: IMU and WiFi sensing plus GPS only when gated on, plus
	// offload transmissions. Cellular RSSI is NOT charged: the paper
	// assumes normal phone usage where the cellular modem is always
	// enabled, so UniLoc's cellular scheme piggybacks on measurements
	// the modem makes anyway (§V-C).
	sensors := []string{schemes.SensorIMU, schemes.SensorWiFi}
	if gpsOn {
		sensors = append(sensors, schemes.SensorGPS)
	}
	acct.AddSensors("uniloc", sensors, dt)
	acct.AddSensors("uniloc-nogps", []string{schemes.SensorIMU, schemes.SensorWiFi}, dt)

	up, down := epochBytes(snap, gpsOn)
	acct.AddTx("uniloc", up+down)
	acct.AddTx("uniloc-nogps", up+down)
	return up, down
}

// epochBytes computes the offload protocol's exact byte counts for one
// epoch using the wire encoders.
func epochBytes(snap *sensing.Snapshot, gpsOn bool) (up, down int) {
	const frame = 3
	if snap.Step != nil {
		up += frame + len(offload.EncodeStep(snap.Step))
	}
	if len(snap.WiFi) > 0 {
		up += frame + len(offload.EncodeVector(snap.WiFi))
	}
	if len(snap.Cell) > 0 {
		up += frame + len(offload.EncodeVector(snap.Cell))
	}
	if gpsOn && snap.GNSS.Reliable() {
		up += frame + len(offload.EncodeFix(snap.GNSS))
	}
	if snap.Landmark != nil {
		up += frame + len(offload.EncodeLandmark(snap.Landmark))
	}
	up += frame + len(offload.EncodeContext(snap, 0, trace.SpanContext{})) // context header
	up += frame                                                            // epoch end
	down = frame + len(offload.EncodeResult(&offload.Result{Selected: schemes.NameFusion}))
	return up, down
}
