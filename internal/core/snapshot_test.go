package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/imu"
	"repro/internal/noise"
	"repro/internal/prng"
	"repro/internal/regress"
	"repro/internal/rf"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/world"
)

// snapshotWorld builds a corridor world with real stateful schemes —
// WiFi fingerprinting (HMM tracker), PDR and fusion (particle filters
// over tracked RNG streams) — the full mutable surface Snapshot must
// capture.
func snapshotWorld(t testing.TB) (FrameworkFactory, *world.World) {
	t.Helper()
	w := &world.World{
		Name:  "snapshot",
		Noise: noise.Field{Seed: 8},
		Proj:  geo.Projection{Origin: geo.LatLon{Lat: 1.3, Lon: 103.7}},
		Regions: []world.Region{
			{Name: "hall", Kind: world.KindOffice, Poly: geo.RectPoly(0, 0, 40, 4), SkyOpenness: 0.05, LightLux: 300, MagNoise: 2, CorridorWidth: 2.5},
		},
		APs: []world.Site{
			{ID: "a0", Pos: geo.Pt(5, 3), TxPowerDBm: 16},
			{ID: "a1", Pos: geo.Pt(20, 1), TxPowerDBm: 16},
			{ID: "a2", Pos: geo.Pt(35, 3), TxPowerDBm: 16},
		},
	}
	db := fingerprint.Survey(w, rf.WiFiModel(), w.APs, 3, rand.New(rand.NewSource(1)))
	ms := NewModelSet()
	for _, name := range []string{schemes.NameWiFi, schemes.NameMotion, schemes.NameFusion} {
		for _, env := range []EnvClass{EnvIndoor, EnvOutdoor} {
			ms.Put(&ErrorModel{
				Scheme: name, Env: env, Features: nil,
				Reg: &regress.Result{HasIntercept: true, Intercept: 3, ResidStd: 2},
			})
		}
	}
	factory := func() (*Framework, error) {
		pdrSrc := prng.New(2)
		pdr := schemes.NewPDR(w, schemes.DefaultPDRConfig(), rand.New(pdrSrc))
		pdr.TrackSource(pdrSrc)
		fusionSrc := prng.New(3)
		fusion := schemes.NewFusion(w, db, schemes.DefaultFusionConfig(), rand.New(fusionSrc))
		fusion.TrackSource(fusionSrc)
		ss := []schemes.Scheme{
			schemes.NewWiFi(db),
			pdr,
			fusion,
		}
		return NewFramework(ss, ms)
	}
	return factory, w
}

func snapshotWalk(w *world.World, epochs int) (geo.Point, []*sensing.Snapshot) {
	rnd := rand.New(rand.NewSource(40))
	model := rf.WiFiModel()
	start := geo.Pt(2, 1)
	pos := start
	snaps := make([]*sensing.Snapshot, 0, epochs)
	for i := 0; i < epochs; i++ {
		pos = pos.Add(geo.Pt(0.7, 0))
		snaps = append(snaps, &sensing.Snapshot{
			Epoch:    i,
			WiFi:     model.Scan(w, w.APs, pos, rf.Reference(), rnd),
			Step:     &imu.StepEvent{LengthM: 0.7, HeadingR: 0, PeriodS: 0.5},
			LightLux: 300,
			MagVarUT: 2.2,
		})
	}
	return start, snaps
}

func sameStep(a, b StepResult) bool {
	return math.Float64bits(a.Best.X) == math.Float64bits(b.Best.X) &&
		math.Float64bits(a.Best.Y) == math.Float64bits(b.Best.Y) &&
		math.Float64bits(a.BMA.X) == math.Float64bits(b.BMA.X) &&
		math.Float64bits(a.BMA.Y) == math.Float64bits(b.BMA.Y) &&
		a.OK == b.OK && a.BestIdx == b.BestIdx && a.Env == b.Env
}

// TestSnapshotRestoreBitIdentical is the foundation of cross-node
// session migration: a walk snapshotted mid-stream and restored into
// a fresh framework (same factory — a different node's session) must
// produce Float64bits-equal ensemble outputs to the uninterrupted
// walk, and taking the snapshot must not perturb the origin.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	factory, w := snapshotWorld(t)
	start, snaps := snapshotWalk(w, 24)
	const cut = 9 // mid-walk, after the trackers and filters carry real state

	ref, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	ref.Reset(start)
	want := make([]StepResult, len(snaps))
	for i, snap := range snaps {
		want[i] = ref.Step(snap)
	}

	origin, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	origin.Reset(start)
	for i := 0; i < cut; i++ {
		if got := origin.Step(snaps[i]); !sameStep(got, want[i]) {
			t.Fatalf("pre-cut epoch %d diverged before any snapshot", i)
		}
	}
	blob, err := origin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The origin keeps walking, unperturbed by the snapshot.
	migrated, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	if err := migrated.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < len(snaps); i++ {
		if got := origin.Step(snaps[i]); !sameStep(got, want[i]) {
			t.Errorf("origin epoch %d diverged after snapshot was taken", i)
		}
		if got := migrated.Step(snaps[i]); !sameStep(got, want[i]) {
			t.Errorf("migrated epoch %d diverged from uninterrupted walk: got (%v,%v) want (%v,%v)",
				i, got.BMA.X, got.BMA.Y, want[i].BMA.X, want[i].BMA.Y)
		}
	}
}

// TestSnapshotRoundTripsRepeatedly pins that Snapshot→Restore can
// chain every epoch (the per-epoch shipping pattern) without drift.
func TestSnapshotRoundTripsRepeatedly(t *testing.T) {
	factory, w := snapshotWorld(t)
	start, snaps := snapshotWalk(w, 12)

	ref, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	ref.Reset(start)

	cur, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	cur.Reset(start)
	for i, snap := range snaps {
		want := ref.Step(snap)
		got := cur.Step(snap)
		if !sameStep(got, want) {
			t.Fatalf("epoch %d diverged under per-epoch migration", i)
		}
		blob, err := cur.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		next, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		if err := next.Restore(blob); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
}

// TestRestoreRejectsMismatchedSchemes pins the safety rail: a blob
// from a different scheme lineup must be rejected, not half-applied.
func TestRestoreRejectsMismatchedSchemes(t *testing.T) {
	factory, w := snapshotWorld(t)
	start, _ := snapshotWalk(w, 1)
	fw, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	fw.Reset(start)
	blob, err := fw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other, err := NewFramework([]schemes.Scheme{&fakeScheme{name: "other", ok: true, pos: geo.Pt(1, 1)}}, NewModelSet())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(blob); err == nil {
		t.Fatal("restore of mismatched scheme list must fail")
	}
	// Empty blobs and hostile counts are refused, not indexed or
	// allocated for.
	huge := append([]byte{}, blob[:1+1+8+8+1+1+1+4+8+1]...)
	huge = append(huge, 0xF0, 0xFF, 0xFF, 0xFF)
	for _, b := range [][]byte{nil, {}, huge} {
		if err := fw.Restore(b); err == nil {
			t.Errorf("restore of %d-byte blob must fail", len(b))
		}
	}
}
