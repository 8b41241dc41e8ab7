package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"time"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/server"
)

const (
	passphrase = "perfbench document key"
	docID      = "hospital"
	// viewsPerSession is how many views a remote-secretary client reads
	// through one OpenRemoteOptions before it opens a new session.
	viewsPerSession = 4
	// maxRetries bounds the retries of a store-update view that failed.
	maxRetries = 3
	// remoteCachePages is remote-secretary's client page cache: 1024 pages
	// of 256 B, smaller than the secretary view's working set on the
	// 400-folder document (about 290 KiB), so every view fetches again.
	remoteCachePages = 1024
)

// workload is one set of inputs and clients the benchmark runs.
type workload struct {
	name string
	// folders is the size of the hospital document.
	folders  int
	policies func() []xmlac.Policy
	// weights is each policy's share of the views (nil: one policy).
	weights []int
	// setup builds the system under test from the inputs: the part the
	// program pays before serving (setup_s). It does not generate inputs or
	// evaluate the oracle.
	setup func(e *env) (*rig, error)
	// checkAfter defers the oracle to the end of the run, when the expected
	// view depends on the document version a view read.
	checkAfter bool
}

// The workloads. Why each exists is in the package documentation.
var workloads = []workload{
	{name: "local-secretary", folders: 800, policies: secretary, setup: setupLocal},
	{name: "local-doctor", folders: 160, policies: doctors, weights: physicianWeights, setup: setupLocal},
	{name: "remote-secretary", folders: 400, policies: secretary, setup: setupRemoteSecretary},
	{name: "store-update", folders: 200, policies: secretary, setup: setupStoreUpdate, checkAfter: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func secretary() []xmlac.Policy { return []xmlac.Policy{xmlac.SecretaryPolicy()} }

func doctors() []xmlac.Policy {
	var out []xmlac.Policy
	for _, p := range dataset.Physicians() {
		out = append(out, xmlac.DoctorPolicy(p))
	}
	return out
}

// env is what a workload's set-up and clients share.
type env struct {
	in       *inputs
	tr       *tracer
	key      xmlac.Key
	policies []xmlac.Policy
	// want is the oracle's view of each policy over the initial document.
	want []digest
}

// rig is a workload's running system under test and the clients that drive
// it.
type rig struct {
	clients []*client
	srv     *remoteServer // nil for local workloads
	// verify checks, after the run, the samples whose expected view was
	// not known while they ran.
	verify func(samples []*sample) error
	close  func()
}

func compileAll(policies []xmlac.Policy) ([]*xmlac.CompiledPolicy, error) {
	out := make([]*xmlac.CompiledPolicy, len(policies))
	for i, p := range policies {
		cp, err := p.Compile()
		if err != nil {
			return nil, err
		}
		out[i] = cp
	}
	return out, nil
}

// setupLocal protects the document in process; one closed-loop client
// streams views of it, cycling through the seeded policy mix.
func setupLocal(e *env) (*rig, error) {
	doc, err := xmlac.ParseDocumentString(e.in.xml)
	if err != nil {
		return nil, err
	}
	prot, err := xmlac.Protect(doc, e.key, xmlac.SchemeECBMHT)
	if err != nil {
		return nil, err
	}
	cps, err := compileAll(e.policies)
	if err != nil {
		return nil, err
	}
	c := &client{name: "local"}
	c.op = func(s *sample) {
		k := 0
		if len(cps) > 1 {
			k = e.in.mix[c.n%len(e.in.mix)]
		}
		s.kind, s.want, s.policy = opView, e.want[k], k
		opts := e.tr.begin(c, s)
		w := newDigestWriter()
		m, err := prot.StreamAuthorizedViewCompiled(e.key, cps[k], opts, w)
		s.got, s.err = w.sum(), err
		if m != nil {
			s.m = *m
		}
	}
	c.after = func(s *sample) {
		s.check()
		e.tr.finish(s)
	}
	return &rig{clients: []*client{c}, close: func() {}}, nil
}

// remoteServer is the untrusted store: an xmlac server holding the
// protected document, serving its blob surface on a loopback listener.
type remoteServer struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	root   string // http://127.0.0.1:port
	docURL string
	dir    string // data directory, removed on close ("" when in memory)
	ctl    *http.Client
}

// startServer opens the server (durable when dataDir is set), registers the
// document and starts serving it.
func startServer(e *env, dataDir string) (*remoteServer, error) {
	opts := server.Options{DataDir: dataDir}
	if e.tr != nil {
		// Keep the server spans of the traced operations until the end of
		// the run, past the untraced requests in between.
		opts.TraceBufferSize = 1 << 14
	}
	srv, err := server.Open(opts)
	if err != nil {
		return nil, err
	}
	if _, err := srv.RegisterDocument(docID, e.in.xml, passphrase, xmlac.SchemeECBMHT); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	rs := &remoteServer{
		srv:    srv,
		hs:     &http.Server{Handler: e.tr.middleware(srv.Handler())},
		served: make(chan error, 1),
		root:   "http://" + ln.Addr().String(),
		dir:    dataDir,
		ctl:    &http.Client{Transport: &http.Transport{}},
	}
	rs.docURL = rs.root + "/docs/" + docID
	go func() { rs.served <- rs.hs.Serve(ln) }()
	return rs, nil
}

// close stops serving, waits for the server goroutine, releases the store
// and removes its data directory.
func (rs *remoteServer) close() {
	rs.hs.Close()
	<-rs.served
	rs.ctl.CloseIdleConnections()
	rs.srv.Close()
	if rs.dir != "" {
		os.RemoveAll(rs.dir)
	}
}

// serverCounters is the part of GET /metrics the per-layer metrics use.
type serverCounters struct {
	Updates struct {
		Applied          int64 `json:"applied"`
		BytesReencrypted int64 `json:"bytes_reencrypted"`
		BytesReused      int64 `json:"bytes_reused"`
	} `json:"updates"`
	Storage struct {
		WALBytes     int64 `json:"wal_bytes"`
		WALAppends   int64 `json:"wal_appends"`
		Fsyncs       int64 `json:"fsyncs"`
		GroupCommits int64 `json:"group_commits"`
		Checkpoints  int64 `json:"checkpoints"`
	} `json:"storage"`
}

func (rs *remoteServer) counters() (serverCounters, error) {
	var out serverCounters
	resp, err := rs.ctl.Get(rs.root + "/metrics")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, err
	}
	return out, requireCounters(body, rs.dir != "")
}

// requireCounters checks that a GET /metrics body holds every counter
// serverCounters reads, the storage ones only from a durable server. A
// counter the server renamed or dropped would otherwise read as 0 and turn
// the per-layer metrics computed from it into zeros.
func requireCounters(body []byte, durable bool) error {
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(body, &sections); err != nil {
		return err
	}
	t := reflect.TypeOf(serverCounters{})
	for i := 0; i < t.NumField(); i++ {
		sec := t.Field(i)
		name := sec.Tag.Get("json")
		if name == "storage" && !durable {
			continue
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(sections[name], &fields); err != nil {
			return fmt.Errorf("GET /metrics: no %q object: %w", name, err)
		}
		for j := 0; j < sec.Type.NumField(); j++ {
			if key := sec.Type.Field(j).Tag.Get("json"); fields[key] == nil {
				return fmt.Errorf("GET /metrics: no %s.%s counter", name, key)
			}
		}
	}
	return nil
}

// remoteClient is a client SOE reading the served document through its own
// HTTP connection.
type remoteClient struct {
	*client
	e   *env
	url string
	cp  *xmlac.CompiledPolicy
	// cachePages is the client page cache capacity (0 keeps the default).
	cachePages int
	hc         *http.Client
	ct         *countingTransport // nil in untraced runs
	doc        *xmlac.RemoteDocument
	// views counts the views of the current session.
	views int
	// mark is doc's traffic already charged to an operation or held in
	// pending, the traffic not yet charged (a session's Open).
	markWire, markTrips       int64
	pendingWire, pendingTrips int64
}

func newRemoteClient(e *env, name, url string, cp *xmlac.CompiledPolicy) *remoteClient {
	rc := &remoteClient{client: &client{name: name}, e: e, url: url, cp: cp}
	rc.hc, rc.ct = newHTTPClient(e.tr)
	rc.after = func(s *sample) {
		s.check()
		e.tr.finish(s)
	}
	return rc
}

// open starts a new session: manifest and digest table over the wire. Its
// traffic is charged to the next operation.
func (rc *remoteClient) open() error {
	doc, err := xmlac.OpenRemoteOptions(rc.url, rc.e.key, xmlac.RemoteOptions{HTTPClient: rc.hc, CacheCapacity: rc.cachePages})
	if err != nil {
		return err
	}
	if rc.doc != nil {
		rc.hold()
	}
	rc.doc, rc.views = doc, 0
	rc.markWire, rc.markTrips = 0, 0
	rc.hold()
	return nil
}

// hold moves the session's traffic since the mark into pending.
func (rc *remoteClient) hold() {
	wire, trips := rc.doc.WireStats()
	rc.pendingWire += wire - rc.markWire
	rc.pendingTrips += trips - rc.markTrips
	rc.markWire, rc.markTrips = wire, trips
}

// measure runs fn as one traced-or-not operation of the client, charging
// the wire traffic and requests it caused to s.
func (rc *remoteClient) measure(s *sample, fn func()) {
	var before requestCounts
	if rc.ct != nil {
		rc.ct.id, before = s.id, rc.ct.counts
	}
	fn()
	rc.hold()
	s.wire, s.trips = rc.pendingWire, rc.pendingTrips
	rc.pendingWire, rc.pendingTrips = 0, 0
	if rc.ct != nil {
		s.reqs = rc.ct.counts.sub(before)
		rc.ct.id = ""
	}
}

// view streams one view of the current session.
func (rc *remoteClient) view(s *sample, opts xmlac.ViewOptions) error {
	w := newDigestWriter()
	m, err := rc.doc.StreamAuthorizedViewCompiled(rc.cp, opts, w)
	if m != nil {
		s.m = *m
	}
	if err != nil {
		return err
	}
	s.got, s.version = w.sum(), rc.doc.Version()
	rc.views++
	return nil
}

// setupRemoteSecretary serves the document from an in-memory server; two
// closed-loop clients each read it in sessions of viewsPerSession views.
func setupRemoteSecretary(e *env) (*rig, error) {
	rs, err := startServer(e, "")
	if err != nil {
		return nil, err
	}
	cps, err := compileAll(e.policies)
	if err != nil {
		rs.close()
		return nil, err
	}
	var rcs []*remoteClient
	r := &rig{srv: rs, close: func() {
		for _, rc := range rcs {
			rc.hc.CloseIdleConnections()
		}
		rs.close()
	}}
	for i := 0; i < 2; i++ {
		rc := newRemoteClient(e, fmt.Sprintf("client%d", i), rs.docURL, cps[0])
		rc.cachePages = remoteCachePages
		rc.prepare = func(*sample) error {
			if rc.doc == nil || rc.views == viewsPerSession {
				return rc.open()
			}
			return nil
		}
		rc.op = func(s *sample) {
			s.kind, s.want = opView, e.want[0]
			opts := e.tr.begin(rc.client, s)
			rc.measure(s, func() { s.err = rc.view(s, opts) })
		}
		rcs = append(rcs, rc)
		r.clients = append(r.clients, rc.client)
	}
	// The first client's first session is the reader's Open of the set-up.
	if err := rcs[0].open(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// setupStoreUpdate serves a durable store (WAL with fsync on every commit)
// that an open-loop writer patches while an open-loop reader revalidates and
// views it.
func setupStoreUpdate(e *env) (*rig, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return nil, err
	}
	rs, err := startServer(e, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cps, err := compileAll(e.policies)
	if err != nil {
		rs.close()
		return nil, err
	}
	reader := newRemoteClient(e, "reader", rs.docURL, cps[0])
	if err := reader.open(); err != nil {
		rs.close()
		return nil, err
	}
	reader.schedule = func(s schedules) []time.Duration { return s.reader }
	reader.op = func(s *sample) {
		s.kind = opView
		opts := e.tr.begin(reader.client, s)
		reader.measure(s, func() { s.err = reader.revalidateAndView(s, opts) })
	}
	reader.after = func(s *sample) { e.tr.finish(s) } // checked after the run

	wr := &writer{e: e, rs: rs, acked: map[uint64]int{}, client: &client{name: "writer"}}
	wr.hc, _ = newHTTPClient(nil)
	wr.schedule = func(s schedules) []time.Duration { return s.writer }
	wr.prepare = wr.beforePatch
	wr.op = wr.patch
	wr.after = wr.afterPatch

	return &rig{
		clients: []*client{wr.client, reader.client},
		srv:     rs,
		verify:  wr.verify,
		close: func() {
			reader.hc.CloseIdleConnections()
			wr.hc.CloseIdleConnections()
			rs.close()
		},
	}, nil
}

// revalidateAndView brings the session to the server's current version and
// views it. A failed view is retried after a fresh Revalidate (the document
// may have changed under it); the last retry opens a new session, dropping
// whatever the client cached.
func (rc *remoteClient) revalidateAndView(s *sample, opts xmlac.ViewOptions) error {
	for attempt := 0; ; attempt++ {
		var err error
		if attempt == maxRetries {
			err = rc.open()
		} else {
			start := time.Now()
			var changed bool
			changed, err = rc.doc.Revalidate()
			if changed {
				s.revalidateNs += time.Since(start).Nanoseconds()
			}
		}
		if err == nil {
			if err = rc.view(s, opts); err == nil {
				return nil
			}
		}
		if attempt == maxRetries {
			return err
		}
		s.retries++
		s.retryErr = err
	}
}

// writer is store-update's writing client. It records which edit produced
// each acknowledged version, so views can be checked against the version
// they read.
type writer struct {
	*client
	e  *env
	rs *remoteServer
	hc *http.Client

	// acked maps each version to the index of the edit that created it.
	// Only the writer's goroutine writes it; verify reads it once the phase
	// has ended.
	acked map[uint64]int

	// Server counters read before a traced PATCH.
	before serverCounters
}

// beforePatch decides whether the update is traced and, if so, reads the
// storage counters it will be compared against.
func (wr *writer) beforePatch(s *sample) error {
	wr.e.tr.begin(wr.client, s)
	if s.id == "" {
		return nil
	}
	var err error
	wr.before, err = wr.rs.counters()
	return err
}

// patch sends the next edit of the stream as a PATCH.
func (wr *writer) patch(s *sample) {
	s.kind = opUpdate
	k := wr.n
	body, err := json.Marshal(map[string][]xmlac.Edit{"edits": {wr.e.in.edits[k].xmlacEdit()}})
	if err != nil {
		s.err = err
		return
	}
	req, err := http.NewRequest(http.MethodPatch, wr.rs.docURL, bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	if s.id != "" {
		req.Header.Set(requestIDHeader, s.id)
	}
	resp, err := wr.hc.Do(req)
	if err != nil {
		s.err = err
		return
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		s.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("PATCH: %s: %s", resp.Status, bytes.TrimSpace(reply))
		return
	}
	var ack struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(reply, &ack); err != nil {
		s.err = fmt.Errorf("PATCH reply: %w", err)
		return
	}
	s.version = ack.Version
	wr.acked[ack.Version] = k
}

// afterPatch charges a traced update the WAL bytes and checkpoints it
// caused.
func (wr *writer) afterPatch(s *sample) {
	if s.id != "" {
		after, err := wr.rs.counters()
		if err == nil {
			s.walBytes = after.Storage.WALBytes - wr.before.Storage.WALBytes
			s.walCheckpoint = after.Storage.Checkpoints - wr.before.Storage.Checkpoints
		}
	}
	wr.e.tr.finish(s)
}

// errUnknownVersion marks a view of a version no acknowledged edit chain
// leads to.
var errUnknownVersion = errors.New("view of a version with no acknowledged edit history")

// verify replays the acknowledged edits on the plaintext document and checks
// every view against the oracle's view of the version it read.
func (wr *writer) verify(samples []*sample) error {
	need := map[uint64]bool{}
	var top uint64
	for _, s := range samples {
		if s.kind == opView && s.err == nil {
			need[s.version] = true
			top = max(top, s.version)
		}
	}
	doc, err := xmlac.ParseDocumentString(wr.e.in.xml)
	if err != nil {
		return err
	}
	want := map[uint64]digest{}
	for v := uint64(1); v <= top; v++ {
		if v > 1 {
			k, ok := wr.acked[v]
			if !ok {
				break
			}
			if err := doc.ApplyEdits(wr.e.in.edits[k].xmlacEdit()); err != nil {
				return fmt.Errorf("replaying edit %d: %w", k, err)
			}
		}
		if need[v] {
			if want[v], err = expectedView(doc, wr.e.policies[0]); err != nil {
				return err
			}
		}
	}
	for _, s := range samples {
		if s.kind != opView || s.err != nil {
			continue
		}
		d, ok := want[s.version]
		if !ok {
			s.err = fmt.Errorf("%w: version %d", errUnknownVersion, s.version)
			continue
		}
		s.want = d
		s.check()
	}
	return nil
}
