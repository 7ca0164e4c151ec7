package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/imu"
	"repro/internal/noise"
	"repro/internal/offload"
	"repro/internal/prng"
	"repro/internal/regress"
	"repro/internal/rf"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// clusterWorld mirrors the offload package's test world: a corridor
// with three APs and a deterministic framework factory (fixed scheme
// seeds), so a session's outputs depend only on the epochs it is fed —
// the property that makes "same walk, any node" bit-identical.
func clusterWorld(t testing.TB) (core.FrameworkFactory, *world.World, *fingerprint.DB) {
	t.Helper()
	w := &world.World{
		Name:  "cluster",
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
	ms := core.NewModelSet()
	for _, name := range []string{schemes.NameWiFi, schemes.NameMotion} {
		for _, env := range []core.EnvClass{core.EnvIndoor, core.EnvOutdoor} {
			ms.Put(&core.ErrorModel{
				Scheme: name, Env: env, Features: nil,
				Reg: &regress.Result{HasIntercept: true, Intercept: 3, ResidStd: 2},
			})
		}
	}
	factory := func() (*core.Framework, error) {
		// Tracked PDR source (bit-identical to rand.NewSource(2)): the
		// framework is snapshotable, so sessions ship over the handoff
		// wire and a peer node can continue any walk mid-flight.
		pdrSrc := prng.New(2)
		pdr := schemes.NewPDR(w, schemes.DefaultPDRConfig(), rand.New(pdrSrc))
		pdr.TrackSource(pdrSrc)
		ss := []schemes.Scheme{
			schemes.NewWiFi(db),
			pdr,
		}
		return core.NewFramework(ss, ms)
	}
	return factory, w, db
}

// corridorWalk precomputes one walker's epochs, deterministic in the
// seed.
func corridorWalk(w *world.World, lane float64, seed int64, epochs int) (geo.Point, []*sensing.Snapshot) {
	rnd := rand.New(rand.NewSource(seed))
	model := rf.WiFiModel()
	start := geo.Pt(2, lane)
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

// node is one in-process uniloc-server backend: an offload server on a
// real TCP listener.
type node struct {
	srv *offload.Server
	ln  net.Listener

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func startNode(t testing.TB, cfg offload.ServerConfig) *node {
	t.Helper()
	srv, err := offload.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &node{srv: srv, ln: ln}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n.mu.Lock()
			n.conns = append(n.conns, conn)
			n.mu.Unlock()
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				_ = n.srv.Serve(conn)
			}()
		}
	}()
	t.Cleanup(func() { n.kill(); n.srv.Close() })
	return n
}

func (n *node) addr() string { return n.ln.Addr().String() }

// kill closes the listener and every live connection — a process
// crash, as far as the router and clients can tell. Idempotent.
func (n *node) kill() {
	_ = n.ln.Close()
	n.mu.Lock()
	for _, c := range n.conns {
		_ = c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
}

// startRouter runs a Router over a real listener.
func startRouter(t testing.TB, cfg RouterConfig) (*Router, string) {
	t.Helper()
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.ListenAndServe(ln, nil)
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		r.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("router did not stop")
		}
	})
	return r, ln.Addr().String()
}

// runWalk drives one walker's precomputed epochs and returns every
// result; any error is returned rather than fataled so concurrent
// walkers can report.
func runWalk(client *offload.Client, start geo.Point, snaps []*sensing.Snapshot) ([]*offload.Result, error) {
	if err := client.Hello(start); err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	out := make([]*offload.Result, 0, len(snaps))
	for i, snap := range snaps {
		res, err := client.Localize(snap)
		if err != nil {
			return out, fmt.Errorf("epoch %d: %w", i, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func samePositions(got, want []*offload.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("result counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(float32(got[i].X)) != math.Float32bits(float32(want[i].X)) ||
			math.Float32bits(float32(got[i].Y)) != math.Float32bits(float32(want[i].Y)) ||
			got[i].OK != want[i].OK {
			return fmt.Errorf("epoch %d diverged: (%v,%v,%v) vs (%v,%v,%v)",
				i, got[i].X, got[i].Y, got[i].OK, want[i].X, want[i].Y, want[i].OK)
		}
	}
	return nil
}

type walkCase struct {
	id    string
	start geo.Point
	snaps []*sensing.Snapshot
	want  []*offload.Result
}

// makeWalks precomputes walker inputs and their reference outputs
// against one directly-dialed node.
func makeWalks(t *testing.T, w *world.World, cfg offload.ServerConfig, walkers, epochs int) []walkCase {
	t.Helper()
	direct := startNode(t, cfg)
	walks := make([]walkCase, walkers)
	for i := range walks {
		start, snaps := corridorWalk(w, 1+float64(i%3), int64(40+i), epochs)
		conn, err := net.Dial("tcp", direct.addr())
		if err != nil {
			t.Fatal(err)
		}
		client := offload.NewClient(conn, fmt.Sprintf("phone-%d", i))
		want, err := runWalk(client, start, snaps)
		_ = client.Close()
		if err != nil {
			t.Fatalf("direct walk %d: %v", i, err)
		}
		walks[i] = walkCase{fmt.Sprintf("phone-%d", i), start, snaps, want}
	}
	return walks
}

// TestClusterBitIdenticalToDirect is the first half of the tentpole's
// acceptance bar: walker sessions consistent-hashed across a 3-node
// cluster produce bit-identical positions to the same walks served by
// one directly-dialed node. Run under -race in CI.
func TestClusterBitIdenticalToDirect(t *testing.T) {
	factory, w, _ := clusterWorld(t)
	cfg := offload.ServerConfig{Factory: factory}
	walks := makeWalks(t, w, cfg, 6, 10)

	nodes := []*node{startNode(t, cfg), startNode(t, cfg), startNode(t, cfg)}
	_, addr := startRouter(t, RouterConfig{
		Backends: []string{nodes[0].addr(), nodes[1].addr(), nodes[2].addr()},
	})

	var wg sync.WaitGroup
	errs := make([]error, len(walks))
	for i := range walks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs[i] = err
				return
			}
			client := offload.NewClient(conn, walks[i].id)
			defer func() { _ = client.Close() }()
			got, err := runWalk(client, walks[i].start, walks[i].snaps)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = samePositions(got, walks[i].want)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("walker %d through cluster: %v", i, err)
		}
	}

	// The hash actually spread the sessions: at least two backends
	// served something.
	busy := 0
	for _, n := range nodes {
		if n.srv.Stats().Opened > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d backends served sessions — ring not spreading", busy)
	}
}

// TestClusterNodeKillMidWalk is the second half: killing one backend
// mid-walk re-routes its sessions through the client reconnect path
// and every walker finishes its full walk — with no duplicate steps,
// pinned by walkers on surviving nodes staying bit-identical to the
// direct reference. Run under -race in CI.
func TestClusterNodeKillMidWalk(t *testing.T) {
	factory, w, _ := clusterWorld(t)
	cfg := offload.ServerConfig{Factory: factory}
	const walkers = 8
	const epochs = 14
	const killAt = 6
	walks := makeWalks(t, w, cfg, walkers, epochs)

	nodes := []*node{startNode(t, cfg), startNode(t, cfg), startNode(t, cfg)}
	router, addr := startRouter(t, RouterConfig{
		Backends: []string{nodes[0].addr(), nodes[1].addr(), nodes[2].addr()},
	})

	// Find the victim before starting: the node that phone-0's key maps
	// to, so at least one walker is guaranteed to be re-routed.
	victimAddr, ok := router.Ring().Pick("phone-0")
	if !ok {
		t.Fatal("ring empty")
	}
	var victim *node
	for _, n := range nodes {
		if n.addr() == victimAddr {
			victim = n
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, walkers)
	moved := make([]bool, walkers) // walker's home was the victim
	var killOnce sync.Once
	// The kill lands mid-walk only once every walker has handshaken: a
	// hello carries no reconnect, so a walker still dialing when the
	// victim dies would fail for a reason this test does not cover.
	var helloed sync.WaitGroup
	helloed.Add(walkers)
	for i := range walks {
		home, _ := router.Ring().Pick(walks[i].id)
		moved[i] = home == victimAddr
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
			conn, err := dial()
			if err != nil {
				errs[i] = err
				helloed.Done()
				return
			}
			client := offload.NewClient(conn, walks[i].id)
			client.SetTimeout(5 * time.Second)
			client.SetReconnect(dial, offload.Backoff{
				Min: 5 * time.Millisecond, Max: 200 * time.Millisecond, Attempts: 30, Seed: int64(i),
			})
			defer func() { _ = client.Close() }()
			err = client.Hello(walks[i].start)
			helloed.Done()
			if err != nil {
				errs[i] = err
				return
			}
			helloed.Wait()
			var got []*offload.Result
			for j, snap := range walks[i].snaps {
				if j == killAt {
					killOnce.Do(func() { victim.kill() })
				}
				res, err := client.Localize(snap)
				if err != nil {
					errs[i] = fmt.Errorf("epoch %d: %w", j, err)
					return
				}
				got = append(got, res)
			}
			if len(got) != epochs {
				errs[i] = fmt.Errorf("finished %d/%d epochs", len(got), epochs)
				return
			}
			if !moved[i] {
				// Walkers whose node survived must be untouched by the
				// kill: bit-identical to the direct reference — the "no
				// duplicate steps" proof for the steady majority.
				errs[i] = samePositions(got, walks[i].want)
			} else {
				for j, r := range got {
					if !r.OK {
						errs[i] = fmt.Errorf("re-routed walker epoch %d not OK", j)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("walker %d (moved=%v): %v", i, moved[i], err)
		}
	}

	anyMoved := false
	for _, m := range moved {
		anyMoved = anyMoved || m
	}
	if !anyMoved {
		t.Fatal("no walker lived on the victim — test can't exercise re-routing")
	}
	// The victim is marked down on the ring after its death.
	if router.Ring().Up(victimAddr) {
		t.Error("victim still marked up after dial failures")
	}
	// Survivors picked up the orphaned sessions.
	served := int64(0)
	for _, n := range nodes {
		if n != victim {
			served += n.srv.Stats().EpochsServed
		}
	}
	if served == 0 {
		t.Error("survivors served nothing")
	}
}

// severConn severs the client→router link right after the target
// result frame has been fully read off the wire — the reply is
// delivered to this wrapper but "lost" before the application saw it,
// modeling a link that died with the reply in flight (the resume
// double-advance scenario, now through the router).
type severConn struct {
	net.Conn
	mu      sync.Mutex
	buf     []byte
	frame   int
	target  int
	severed bool
}

func (d *severConn) Read(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.buf) == 0 {
		var hdr [3]byte
		if _, err := readFull(d.Conn, hdr[:]); err != nil {
			return 0, err
		}
		n := int(hdr[1])<<8 | int(hdr[2])
		payload := make([]byte, n)
		if _, err := readFull(d.Conn, payload); err != nil {
			return 0, err
		}
		d.frame++
		if d.frame == d.target && !d.severed {
			d.severed = true
			_ = d.Conn.Close()
			return 0, fmt.Errorf("severConn: link died with reply in flight")
		}
		d.buf = append(hdr[:], payload...)
	}
	n := copy(p, d.buf)
	d.buf = d.buf[n:]
	return n, nil
}

func readFull(r net.Conn, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := r.Read(p[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TestClusterSameNodeResume verifies sequence-resume through the
// router: a client whose link dies with a reply in flight reconnects,
// the ring routes it to the same (healthy) backend, the v4
// re-handshake re-attaches the detached session, and the re-sent
// epoch is answered from the replay cache — the whole walk stays
// bit-identical to the uninterrupted reference. Run under -race in CI.
func TestClusterSameNodeResume(t *testing.T) {
	factory, w, _ := clusterWorld(t)
	cfg := offload.ServerConfig{Factory: factory}
	walks := makeWalks(t, w, cfg, 1, 12)
	wc := walks[0]

	backend := startNode(t, cfg)
	_, addr := startRouter(t, RouterConfig{Backends: []string{backend.addr()}})

	dialSevered := false
	dial := func() (net.Conn, error) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if tc, ok := raw.(*net.TCPConn); ok {
			_ = tc.SetLinger(0) // sever = RST: the backend parks the session
		}
		if dialSevered {
			return raw, nil // reconnects get a clean link
		}
		dialSevered = true
		// Frame 1 is the Welcome; frame 1+k the k-th epoch's result.
		// Sever after the 5th epoch's reply was written.
		return &severConn{Conn: raw, target: 1 + 5}, nil
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client := offload.NewClient(conn, wc.id)
	client.SetTimeout(2 * time.Second)
	client.SetReconnect(func() (net.Conn, error) { return dial() }, offload.Backoff{
		Min: 5 * time.Millisecond, Max: 100 * time.Millisecond, Attempts: 20, Seed: 7,
	})
	defer func() { _ = client.Close() }()

	got, err := runWalk(client, wc.start, wc.snaps)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePositions(got, wc.want); err != nil {
		t.Fatalf("resumed walk diverged from reference: %v", err)
	}
	if client.Resumes() < 1 {
		t.Errorf("client resumes = %d, want >= 1", client.Resumes())
	}
	st := backend.srv.Stats()
	if st.Resumed < 1 || st.ReplayedEpochs < 1 {
		t.Errorf("backend resumed=%d replayed=%d, want >= 1 each", st.Resumed, st.ReplayedEpochs)
	}
	if st.Opened != 1 {
		t.Errorf("backend opened %d sessions, want 1 (resume, not re-open)", st.Opened)
	}
}

// TestRouterMembershipMetrics pins the satellite: the prober notices a
// dead backend, the ring marks it down, and the membership gauge on
// the telemetry registry flips to 0 — /metrics shows cluster state.
func TestRouterMembershipMetrics(t *testing.T) {
	factory, _, _ := clusterWorld(t)
	cfg := offload.ServerConfig{Factory: factory}
	a, b := startNode(t, cfg), startNode(t, cfg)
	reg := telemetry.NewRegistry()
	router, _ := startRouter(t, RouterConfig{
		Backends:    []string{a.addr(), b.addr()},
		HealthEvery: 10 * time.Millisecond,
		Metrics:     reg,
	})

	up := func(addr string) (float64, bool) {
		return reg.Snapshot().Get("uniloc_router_backend_up", "backend", addr)
	}
	if v, ok := up(a.addr()); !ok || v != 1 {
		t.Fatalf("backend %s gauge = %v,%v, want 1", a.addr(), v, ok)
	}

	b.kill()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if v, ok := up(b.addr()); ok && v == 0 && !router.Ring().Up(b.addr()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the dead backend down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	members := router.Ring().Members()
	downRows := 0
	for _, m := range members {
		if !m.Up {
			downRows++
		}
	}
	if len(members) != 2 || downRows != 1 {
		t.Fatalf("membership = %+v, want 2 rows with 1 down", members)
	}
}
