package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/faultfs"
	"numarck/internal/obs"
	"numarck/internal/server"
)

// encodeOpt is the daemon's flag defaults: E=0.001, B=8, clustering.
// The library workload encodes with the same settings.
var encodeOpt = core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.Clustering}

// daemon is the checkpoint service running inside the benchmark's
// process on a loopback listener, with default chunking and no memory
// governor. Its handler is wrapped so a traced phase can time every
// request by route; an untraced phase pays one atomic load per request.
type daemon struct {
	root   string
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	// transport is the client's connection pool, limited to one
	// connection.
	transport *http.Transport
	// lay is the traced phase's layer accumulator, nil when untraced.
	lay atomic.Pointer[layers]

	once     sync.Once
	closeErr error
}

// startDaemon builds the server under root and serves it on a fresh
// loopback port.
func startDaemon(root string) (*daemon, error) {
	srv, err := server.New(server.Config{Root: root, Opt: encodeOpt})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{root: root, srv: srv, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	d.hs = &http.Server{Handler: d.wrap(srv.Handler()), ReadHeaderTimeout: time.Minute}
	d.transport = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close shuts the HTTP server down (listener first, then waiting for
// in-flight requests), waits for its serve loop to return, drops the
// client's idle connection and removes the daemon's root.
func (d *daemon) close() error {
	d.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := d.hs.Shutdown(ctx)
		if err != nil {
			err = errors.Join(err, d.hs.Close())
		}
		if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		d.transport.CloseIdleConnections()
		d.closeErr = errors.Join(err, os.RemoveAll(d.root))
	})
	return d.closeErr
}

// wrap times each request by route into the traced phase's layers.
func (d *daemon) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l := d.lay.Load()
		if l == nil {
			h.ServeHTTP(w, r)
			return
		}
		sw := &spanWriter{ResponseWriter: w, want: -1}
		t0 := time.Now()
		h.ServeHTTP(sw, r)
		end := time.Now()
		if !sw.done.IsZero() {
			end = sw.done
		}
		l.span(routeOf(r), end.Sub(t0))
	})
}

// spanWriter notes when a handler has written its whole declared
// Content-Length: the client can have the response from then on, so a
// handler span ends there rather than when the handler returns.
type spanWriter struct {
	http.ResponseWriter
	want, n int64
	done    time.Time
}

// Write writes b and notes the moment the response is complete.
func (w *spanWriter) Write(b []byte) (int, error) {
	if w.n == 0 {
		if cl, err := strconv.ParseInt(w.Header().Get("Content-Length"), 10, 64); err == nil {
			w.want = cl
		}
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	if w.want >= 0 && w.n >= w.want && w.done.IsZero() {
		w.done = time.Now()
	}
	return n, err
}

// routeOf names the handler span of a request.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/checkpoints"):
		return "server.commit_handler"
	case r.Method == http.MethodGet && strings.Contains(p, "/checkpoints/"):
		return "server.get_handler"
	case r.Method == http.MethodPut && strings.HasPrefix(p, "/v1/uploads/"):
		return "server.upload_range_handler"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/finalize"):
		return "server.finalize_handler"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/uploads"):
		return "server.upload_create_handler"
	}
	return "server.other_handler"
}

// client returns a server.Client for tenant, traced into l when l is
// non-nil.
func (d *daemon) client(tenant string, l *layers) *server.Client {
	var rt http.RoundTripper = d.transport
	if l != nil {
		rt = tracedTransport{base: rt, lay: l}
	}
	return &server.Client{Base: d.base, Tenant: tenant, HTTP: &http.Client{Transport: rt}, Obs: l.clientRecorder()}
}

// tenant returns the registry handle of a tenant.
func (d *daemon) tenant(name string) (*server.Tenant, error) {
	return d.srv.Registry().Tenant(name)
}

// tracedTransport times each round trip, from sending the request to
// closing the response body.
type tracedTransport struct {
	base http.RoundTripper
	lay  *layers
}

// RoundTrip sends req and starts the round-trip span.
func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.lay.span("server.roundtrip", time.Since(t0))
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t0: t0, lay: t.lay}
	return resp, nil
}

// spanBody ends a round-trip span when the body is closed.
type spanBody struct {
	io.ReadCloser
	t0   time.Time
	lay  *layers
	once sync.Once
}

// Close closes the body and ends the span once.
func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.lay.span("server.roundtrip", time.Since(b.t0)) })
	return err
}

// tracer holds one client's traced-phase state for one round: a
// read view of the tenant's store with the benchmark's own recorder.
type tracer struct {
	lay    *layers
	tenant *server.Tenant
	view   *checkpoint.ReadView
}

// beforeDelta times, from outside, the layers a delta commit of series
// at iter goes through: the previous state's reconstruction
// (ReadView.Restart of iter-1), an empty store open and close
// (Tenant.WithStore), and core.Encode of the transition.
func (t *tracer) beforeDelta(series string, iter int, cur []float64, opt core.Options) error {
	view, err := t.readView()
	if err != nil {
		return err
	}
	t0 := time.Now()
	prev, err := view.Restart(series, iter-1)
	t.lay.span("checkpoint.prev_restart", time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	err = t.tenant.WithStore(func(*checkpoint.Store) error { return nil })
	t.lay.span("checkpoint.open_close", time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, err = core.Encode(prev, cur, opt)
	t.lay.span("core.encode", time.Since(t0))
	return err
}

// readView opens the tracer's read view once the tenant's store
// exists.
func (t *tracer) readView() (*checkpoint.ReadView, error) {
	if t.view == nil {
		v, err := checkpoint.OpenReadOnlyFS(t.tenant.Dir(), faultfs.OS(), t.lay.recorder())
		if err != nil {
			return nil, err
		}
		t.view = v
	}
	return t.view, nil
}

// shadowRestart repeats a restart of series at iter layer by layer,
// outside the timed path: the chain walk comes from ReadView.Chain and
// each delta is parsed and decoded with core's decoder recording into
// the benchmark's recorder. It returns the reconstruction, which must
// equal the timed restart's bit for bit.
func shadowRestart(l *layers, view *checkpoint.ReadView, series string, iter int) ([]float64, error) {
	entries, err := view.Chain(series)
	if err != nil {
		return nil, err
	}
	full, end := -1, -1
	for i, ce := range entries {
		if ce.Iteration > iter {
			break
		}
		if ce.Kind == "full" {
			full = i
		}
		end = i
	}
	if full < 0 || entries[end].Iteration != iter {
		return nil, fmt.Errorf("shadow restart %s@%d: no chain reaches it", series, iter)
	}
	recons, err := replayChain(view.Dir(), entries[full:end+1], l.recorder())
	if err != nil {
		return nil, err
	}
	l.add("deltas_walked", float64(end-full))
	l.add("restarts_walked", 1)
	return recons[len(recons)-1], nil
}

// replayChain reconstructs every entry of a chain segment that starts
// at a full checkpoint, reading each file once and decoding each delta
// on the previous reconstruction with core's decoder (recording into
// rec, which may be nil).
func replayChain(dir string, entries []checkpoint.ChainEntry, rec *obs.Recorder) ([][]float64, error) {
	out := make([][]float64, len(entries))
	for i, ce := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ce.Name))
		if err != nil {
			return nil, err
		}
		if ce.Kind == "full" {
			if _, _, out[i], err = checkpoint.UnmarshalFull(raw); err != nil {
				return nil, err
			}
			continue
		}
		if i == 0 {
			return nil, fmt.Errorf("chain segment starts with delta %s", ce.Name)
		}
		var enc *core.Encoded
		if checkpoint.IsDeltaV2(raw) {
			_, _, enc, err = checkpoint.UnmarshalDeltaV2(raw)
		} else {
			_, _, enc, err = checkpoint.UnmarshalDelta(raw)
		}
		if err != nil {
			return nil, err
		}
		enc.Opt.Obs = rec
		if out[i], err = enc.Decode(out[i-1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceGet repeats a GET's restart layer by layer and checks it.
func traceGet(l *layers, tr *tracer, series string, iter int, got []float64) error {
	view, err := tr.readView()
	if err != nil {
		return err
	}
	shadow, err := shadowRestart(l, view, series, iter)
	if err != nil {
		return err
	}
	return checkShadow(series, iter, shadow, got)
}

// checkShadow requires a shadow restart to match the timed one.
func checkShadow(series string, iter int, shadow, got []float64) error {
	if err := checkFull(got, shadow); err != nil {
		return checkFailed("%s@%d: restart differs from its layer-by-layer repeat: %v", series, iter, err)
	}
	return nil
}

// floatsLE renders values as the wire's raw little-endian float64.
func floatsLE(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// parseLE decodes raw little-endian float64 bytes.
func parseLE(raw []byte) []float64 {
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// fetch GETs series at iter through c and returns the values and the
// call's duration.
func fetch(c *server.Client, series string, iter int) ([]float64, time.Duration, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	_, _, err := c.Fetch(series, iter, &buf, false)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	return parseLE(buf.Bytes()), d, nil
}
