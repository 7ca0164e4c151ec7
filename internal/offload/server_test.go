package offload

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/imu"
	"repro/internal/mapstore"
	"repro/internal/noise"
	"repro/internal/regress"
	"repro/internal/rf"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/world"
)

// offloadWorld builds a corridor world plus a deterministic framework
// factory over the wifi and motion schemes. Every factory call returns
// an identically-initialized framework (fixed scheme seeds), so a
// session's outputs depend only on the epochs it is fed — the property
// the concurrency tests rely on.
func offloadWorld(t testing.TB) (core.FrameworkFactory, *world.World) {
	t.Helper()
	w := &world.World{
		Name:  "off",
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
		ss := []schemes.Scheme{
			schemes.NewWiFi(db),
			schemes.NewPDR(w, schemes.DefaultPDRConfig(), rand.New(rand.NewSource(2))),
		}
		return core.NewFramework(ss, ms)
	}
	return factory, w
}

func newTestServer(t testing.TB, cfg ServerConfig) *Server {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// corridorWalk precomputes one client's walk: a straight line of
// epochs with WiFi scans and step updates, deterministic in the seed.
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

// runWalk replays precomputed snapshots through a client and returns
// every result.
func runWalk(t testing.TB, client *Client, start geo.Point, snaps []*sensing.Snapshot) []*Result {
	t.Helper()
	if err := client.Hello(start); err != nil {
		t.Fatalf("hello: %v", err)
	}
	out := make([]*Result, 0, len(snaps))
	for i, snap := range snaps {
		res, err := client.Localize(snap)
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		out = append(out, res)
	}
	return out
}

func TestClientServerEndToEnd(t *testing.T) {
	factory, w := offloadWorld(t)
	srv := newTestServer(t, ServerConfig{Factory: factory})
	client := pipeClient(t, srv)

	start, snaps := corridorWalk(w, 2, 3, 30)
	results := runWalk(t, client, start, snaps)

	pos := start.Add(geo.Pt(0.7*float64(len(snaps)), 0))
	last := results[len(results)-1]
	if !last.OK {
		t.Error("result should report a scheme available")
	}
	if lastErr := geo.Pt(last.X, last.Y).Dist(pos); lastErr > 10 {
		t.Errorf("fused error after walk = %v m", lastErr)
	}
	if client.Epochs() != 30 {
		t.Errorf("epochs = %d", client.Epochs())
	}
	if client.SessionID() == 0 {
		t.Error("hello should assign a session id")
	}
	if client.BytesUp() == 0 || client.BytesDown() == 0 {
		t.Error("byte counters should advance")
	}
	// The per-epoch upload should be compact (tens of bytes, not KB).
	perEpoch := client.BytesUp() / client.Epochs()
	if perEpoch > 300 {
		t.Errorf("upload %d B/epoch too large", perEpoch)
	}

	st := srv.Stats()
	if st.Opened != 1 || st.Active != 1 || st.EpochsServed != 30 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.Sessions) != 1 || st.Sessions[0].Epochs != 30 {
		t.Errorf("session stats = %+v", st.Sessions)
	}
}

// TestConcurrentClientsMatchIsolatedRuns is the tentpole regression:
// N simultaneous walks through ONE server must reproduce exactly the
// per-walk results of N single-client runs. Before per-session
// frameworks, interleaved epochs corrupted every walk. Run under
// -race in CI.
func TestConcurrentClientsMatchIsolatedRuns(t *testing.T) {
	const nClients = 4
	const epochs = 40
	factory, w := offloadWorld(t)

	// Precompute every walk serially so snapshot generation is
	// deterministic and race-free.
	starts := make([]geo.Point, nClients)
	walks := make([][]*sensing.Snapshot, nClients)
	for c := 0; c < nClients; c++ {
		starts[c], walks[c] = corridorWalk(w, 1+0.4*float64(c), int64(100+c), epochs)
	}

	// Reference: each walk alone against its own fresh server.
	want := make([][]*Result, nClients)
	for c := 0; c < nClients; c++ {
		srv := newTestServer(t, ServerConfig{Factory: factory})
		client := pipeClient(t, srv)
		want[c] = runWalk(t, client, starts[c], walks[c])
	}

	// All walks concurrently against one shared server over real TCP.
	srv := newTestServer(t, ServerConfig{Factory: factory})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.ListenAndServe(ln, func(err error) { t.Errorf("server: %v", err) })
	}()

	got := make([][]*Result, nClients)
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Errorf("client %d dial: %v", c, err)
				return
			}
			defer func() { _ = conn.Close() }()
			got[c] = runWalk(t, NewClient(conn, fmt.Sprintf("c%d", c)), starts[c], walks[c])
		}(c)
	}
	wg.Wait()
	_ = ln.Close()
	select {
	case <-serveDone:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop")
	}

	for c := 0; c < nClients; c++ {
		if len(got[c]) != len(want[c]) {
			t.Fatalf("client %d: %d results, want %d", c, len(got[c]), len(want[c]))
		}
		for i := range got[c] {
			g, w := got[c][i], want[c][i]
			if *g != *w {
				t.Fatalf("client %d epoch %d: concurrent result %+v != isolated %+v", c, i, g, w)
			}
		}
	}

	st := srv.Stats()
	if st.Opened != nClients || st.Closed != nClients || st.Active != 0 {
		t.Errorf("stats after walks = %+v", st)
	}
	if st.EpochsServed != nClients*epochs {
		t.Errorf("epochs served = %d, want %d", st.EpochsServed, nClients*epochs)
	}
}

func TestSessionLimitRejectsGracefully(t *testing.T) {
	factory, w := offloadWorld(t)
	srv := newTestServer(t, ServerConfig{Factory: factory, MaxSessions: 1})

	first := pipeClient(t, srv)
	start, snaps := corridorWalk(w, 2, 5, 1)
	runWalk(t, first, start, snaps)

	// Second session must be refused with the server's reason, not a
	// dropped connection.
	second := pipeClient(t, srv)
	err := second.Hello(geo.Pt(0, 0))
	if !isRejected(err) {
		t.Fatalf("second hello = %v, want ErrRejected", err)
	}

	st := srv.Stats()
	if st.Rejected != 1 || st.Active != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestServeRequiresHello(t *testing.T) {
	factory, _ := offloadWorld(t)
	srv := newTestServer(t, ServerConfig{Factory: factory})
	c1, c2 := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(c2) }()
	// Protocol-v1 style: epoch frames with no handshake.
	if _, err := WriteFrame(c1, MsgContext, EncodeContext(&sensing.Snapshot{}, 1, trace.SpanContext{})); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("server should reject a session without hello")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not reject")
	}
	_ = c1.Close()
}

func TestServeNegotiatesDownNewerClient(t *testing.T) {
	// A client announcing a future protocol version is not rejected:
	// the handshake negotiates the session down to the server's
	// maximum, so old servers keep serving new phones.
	factory, _ := offloadWorld(t)
	srv := newTestServer(t, ServerConfig{Factory: factory})
	c1, c2 := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(c2) }()
	h := &Hello{Version: ProtocolVersion + 1}
	if _, err := WriteFrame(c1, MsgHello, EncodeHello(h)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(c1)
	if err != nil || typ != MsgWelcome {
		t.Fatalf("welcome read: %v %v", typ, err)
	}
	w, err := DecodeWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !w.OK {
		t.Fatalf("newer client must be negotiated down, got rejection: %s", w.Reason)
	}
	if w.Version != ProtocolVersion {
		t.Errorf("negotiated version = %d, want server max %d", w.Version, ProtocolVersion)
	}
	_ = c1.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not finish")
	}
}

func TestIdleEviction(t *testing.T) {
	factory, w := offloadWorld(t)
	srv := newTestServer(t, ServerConfig{Factory: factory, IdleTimeout: 30 * time.Millisecond})

	client := pipeClient(t, srv)
	start, snaps := corridorWalk(w, 2, 5, 2)
	runWalk(t, client, start, snaps)

	// Let the session go idle past the timeout, then reap manually
	// (ListenAndServe runs the same reaper on a ticker).
	time.Sleep(50 * time.Millisecond)
	if n := srv.Sessions().EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	// The session's connection is closed: the next request fails.
	if _, err := client.Localize(snaps[0]); err == nil {
		t.Error("localize after eviction should fail")
	}

	waitFor(t, func() bool {
		st := srv.Stats()
		return st.Evicted == 1 && st.Active == 0 && st.Closed == 1
	})
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}

// scriptedListener feeds ListenAndServe a sequence of accept results.
type scriptedListener struct {
	mu     sync.Mutex
	script []acceptResult
}

type acceptResult struct {
	conn net.Conn
	err  error
}

type tempErr struct{}

func (tempErr) Error() string   { return "resource temporarily unavailable" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func (l *scriptedListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.script) == 0 {
		return nil, net.ErrClosed
	}
	r := l.script[0]
	l.script = l.script[1:]
	return r.conn, r.err
}
func (l *scriptedListener) Close() error   { return nil }
func (l *scriptedListener) Addr() net.Addr { return &net.TCPAddr{} }

func TestListenAndServeRetriesTransientAcceptErrors(t *testing.T) {
	factory, _ := offloadWorld(t)
	srv := newTestServer(t, ServerConfig{Factory: factory})

	ln := &scriptedListener{script: []acceptResult{
		{err: tempErr{}},
		{err: tempErr{}},
		{err: fmt.Errorf("weird accept failure")},
	}}
	var reported []error
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ListenAndServe(ln, func(err error) {
			mu.Lock()
			reported = append(reported, err)
			mu.Unlock()
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not stop on closed listener")
	}
	mu.Lock()
	defer mu.Unlock()
	// All three errors retried and reported; only net.ErrClosed ends
	// the loop.
	if len(reported) != 3 {
		t.Fatalf("reported %d errors, want 3: %v", len(reported), reported)
	}
}

func isRejected(err error) bool { return errors.Is(err, ErrRejected) }

func BenchmarkServerConcurrentClients(b *testing.B) {
	// Same epoch workload through two server configurations: private
	// per-session database scans ("private") vs every session reading
	// one shared indexed map store ("shared"). The shared store must
	// not regress concurrent throughput — readers pin snapshots with
	// one atomic load and never contend.
	worlds := []struct {
		name    string
		factory core.FrameworkFactory
		w       *world.World
	}{}
	{
		factory, w := offloadWorld(b)
		worlds = append(worlds, struct {
			name    string
			factory core.FrameworkFactory
			w       *world.World
		}{"private", factory, w})
		sharedFactory, sw, _ := sharedStoreWorld(b, telemetry.NewRegistry())
		worlds = append(worlds, struct {
			name    string
			factory core.FrameworkFactory
			w       *world.World
		}{"shared", sharedFactory, sw})
	}
	for _, wd := range worlds {
		factory := wd.factory
		_, snaps := corridorWalk(wd.w, 2, 7, 8)
		for _, nc := range []int{1, 2, 4, 8} {
			benchServerClients(b, fmt.Sprintf("map=%s/clients=%d", wd.name, nc), ServerConfig{Factory: factory}, snaps, nc)
		}
	}

	// Batched scheduler over the shared store: the same epochs, but
	// grouped per tick and served one columnar distance pass per batch.
	batchedFactory, bw, store := sharedStoreWorld(b, telemetry.NewRegistry())
	_, bsnaps := corridorWalk(bw, 2, 7, 8)
	for _, nc := range []int{8, 64} {
		cfg := ServerConfig{
			Factory:     batchedFactory,
			BatchTick:   200 * time.Microsecond,
			BatchStores: map[byte]*mapstore.Store{MapWiFi: store},
		}
		benchServerClients(b, fmt.Sprintf("map=shared-batched/clients=%d", nc), cfg, bsnaps, nc)
	}
}

func benchServerClients(b *testing.B, name string, cfg ServerConfig, snaps []*sensing.Snapshot, nc int) {
	b.Run(name, func(b *testing.B) {
		srv, err := NewServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.ListenAndServe(ln, nil)
		defer func() { _ = ln.Close() }()

		clients := make([]*Client, nc)
		for i := range clients {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			clients[i] = NewClient(conn)
			if err := clients[i].Hello(geo.Pt(2, 2)); err != nil {
				b.Fatal(err)
			}
		}

		// b.N epochs total, split across the concurrent clients:
		// throughput should grow with nc now that sessions no
		// longer serialize on one shared framework.
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N / nc
		if per == 0 {
			per = 1
		}
		for _, c := range clients {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := c.Localize(snaps[i%len(snaps)]); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		b.ReportMetric(float64(per*nc)/b.Elapsed().Seconds(), "epochs/s")
	})
}

// TestServerMetricsExposition runs a full walk against an instrumented
// server and checks the RED metrics a scrape would see: session
// counters, epochs served, frame bytes in both directions, and a
// populated step-latency histogram — plus per-session latency
// percentiles in Stats.
func TestServerMetricsExposition(t *testing.T) {
	factory, w := offloadWorld(t)
	reg := telemetry.NewRegistry()
	srv := newTestServer(t, ServerConfig{Factory: factory, MaxSessions: 1, Metrics: reg})

	client := pipeClient(t, srv)
	start, snaps := corridorWalk(w, 2, 3, 25)
	runWalk(t, client, start, snaps)

	// A second client must be rejected (limit 1) and counted.
	c1, c2 := net.Pipe()
	go func() { _ = srv.Serve(c2) }()
	reject := NewClient(c1)
	if err := reject.Hello(start); !errors.Is(err, ErrRejected) {
		t.Fatalf("second hello err = %v, want rejection", err)
	}
	_ = c1.Close()

	snap := reg.Snapshot()
	expect := map[string]float64{
		"uniloc_sessions_opened_total":   1,
		"uniloc_sessions_active":         1,
		"uniloc_sessions_rejected_total": 1,
		"uniloc_epochs_served_total":     25,
	}
	for name, want := range expect {
		if got, ok := snap.Get(name); !ok || got != want {
			t.Errorf("%s = %v ok=%v, want %v", name, got, ok, want)
		}
	}
	// The byte counters increment after the pipe write is consumed, so
	// the server goroutine may still be a hair behind the client's own
	// accounting — poll briefly before failing.
	wantBytes := func(dir string, min int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			v, ok := reg.Snapshot().Get("uniloc_frame_bytes_total", "dir", dir)
			if ok && v >= float64(min) {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("bytes %s = %v ok=%v, want >= client-side count %d", dir, v, ok, min)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	wantBytes("in", client.BytesUp())
	wantBytes("out", client.BytesDown())
	if h := reg.Histogram("uniloc_step_seconds", "", nil); h.Count() != 25 {
		t.Errorf("step histogram count = %d, want 25", h.Count())
	}

	st := srv.Stats()
	if len(st.Sessions) != 1 {
		t.Fatalf("sessions = %+v", st.Sessions)
	}
	row := st.Sessions[0]
	if row.P50Latency <= 0 || row.P95Latency < row.P50Latency {
		t.Errorf("session latency percentiles p50=%v p95=%v", row.P50Latency, row.P95Latency)
	}

	// The scrape itself renders both formats without error.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil || !strings.Contains(sb.String(), "uniloc_step_seconds_bucket") {
		t.Errorf("prometheus render err=%v missing step buckets", err)
	}
}

// TestServerWithoutRegistryStillServes pins the nil-metrics path: all
// instruments are nil and every update must be a safe no-op.
func TestServerWithoutRegistryStillServes(t *testing.T) {
	factory, w := offloadWorld(t)
	srv := newTestServer(t, ServerConfig{Factory: factory}) // Metrics: nil
	client := pipeClient(t, srv)
	start, snaps := corridorWalk(w, 2, 3, 5)
	results := runWalk(t, client, start, snaps)
	if len(results) != 5 {
		t.Fatalf("served %d epochs", len(results))
	}
	if st := srv.Stats(); st.EpochsServed != 5 {
		t.Errorf("stats still work without a registry: %+v", st)
	}
}

// TestStepWorkersParallelSessionsMatchSequential wires the parallel
// epoch pipeline through the server: ServerConfig.StepWorkers must
// reach every session's framework (core.WithParallel semantics), the
// replies must match a sequential server's exactly, Stats must surface
// the setting, and closing a session must stop its worker pool.
func TestStepWorkersParallelSessionsMatchSequential(t *testing.T) {
	factory, w := offloadWorld(t)
	start, snaps := corridorWalk(w, 1.5, 77, 30)

	seqSrv := newTestServer(t, ServerConfig{Factory: factory})
	want := runWalk(t, pipeClient(t, seqSrv), start, snaps)

	parSrv := newTestServer(t, ServerConfig{Factory: factory, StepWorkers: 2})
	if st := parSrv.Stats(); st.StepWorkers != 2 {
		t.Fatalf("Stats().StepWorkers = %d, want 2", st.StepWorkers)
	}

	// Opened sessions carry the configured worker count; Close stops
	// the pool with the session.
	probe, err := parSrv.mgr.Open("probe", start, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := probe.fw.StepWorkers(); got != 2 {
		t.Fatalf("session framework StepWorkers = %d, want 2", got)
	}
	parSrv.mgr.Close(probe)

	got := runWalk(t, pipeClient(t, parSrv), start, snaps)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if *got[i] != *want[i] {
			t.Fatalf("epoch %d: parallel server reply %+v != sequential %+v", i, got[i], want[i])
		}
	}
}
