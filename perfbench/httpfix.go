package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"cbvr/internal/core"
	"cbvr/internal/server"
	"cbvr/internal/vstore"
)

// Trace headers carry the client span into the traced handler wrapper so
// the server span becomes its child (the client span's self time is then
// the transport time).
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// httpFixture is cbvr-server's handler (server.New) on a loopback port
// over a fresh store, plus the client the load generators share.
type httpFixture struct {
	path   string
	eng    *core.Engine
	srv    *server.Server
	hs     *http.Server
	done   chan error
	url    string
	client *http.Client
	tr     *tracer
}

// engineOptions is the engine configuration every workload uses: the
// defaults (fsync on every commit), with the counting filesystem swapped
// in when one is given.
func engineOptions(fs *countFS) core.Options {
	var opts core.Options
	if fs != nil {
		opts.Store = vstore.Options{FS: fs}
	}
	return opts
}

// startHTTP opens a store at path and serves it on 127.0.0.1.
func startHTTP(path string, tr *tracer, fs *countFS) (*httpFixture, error) {
	eng, err := core.Open(path, engineOptions(fs))
	if err != nil {
		return nil, err
	}
	f, err := serveHTTP(eng, tr)
	if err != nil {
		eng.Close()
		return nil, err
	}
	f.path = path
	return f, nil
}

// serveHTTP serves an open engine on 127.0.0.1.
func serveHTTP(eng *core.Engine, tr *tracer) (*httpFixture, error) {
	srv := server.New(eng, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFixture{
		eng:  eng,
		srv:  srv,
		hs:   &http.Server{ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
		tr: tr,
	}
	f.hs.Handler = srv
	if tr != nil {
		f.hs.Handler = tracedHandler{f}
	}
	go func() { f.done <- f.hs.Serve(ln) }()
	return f, nil
}

// close shuts the listener down and waits for every handler; the engine
// stays open.
func (f *httpFixture) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	f.client.CloseIdleConnections()
	f.srv.Wait()
	return err
}

// stop is close plus closing the store.
func (f *httpFixture) stop() error {
	err := f.close()
	if cerr := f.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedHandler records a span around Server.ServeHTTP for each request
// the client traced (one that carries the trace headers).
type tracedHandler struct{ f *httpFixture }

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(hdrReq) == "" {
		t.f.srv.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	s := t.f.tr.open("server."+routeLabel(r.Method, r.URL.Path), parent, req)
	t.f.srv.ServeHTTP(w, r)
	t.f.tr.close(s)
}

// routeLabel names an API route for span names.
func routeLabel(method, path string) string {
	switch {
	case path == "/api/v1/search":
		return "search"
	case path == "/api/v1/ingest":
		return "ingest"
	case path == "/api/v1/videos" && method == http.MethodDelete:
		return "delete"
	}
	return "other"
}

// do sends one request and decodes a 200 JSON body into out; any other
// status is an error (a refusal counts as a failure). req is the trace
// request id; 0 sends the request untraced even in a traced run.
func (f *httpFixture) do(method, path, ctype string, body []byte, req int64, out any) error {
	hr, err := http.NewRequest(method, f.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		hr.Header.Set("Content-Type", ctype)
	}
	tr := f.tr
	if req == 0 {
		tr = nil
	}
	s := tr.open("client."+routeLabel(method, hr.URL.Path), 0, req)
	defer tr.close(s)
	if tr != nil {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatInt(s.ID, 10))
	}
	resp, err := f.client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// matchJSON mirrors one /api/v1/search result row.
type matchJSON struct {
	KeyFrameID int64   `json:"key_frame_id"`
	VideoID    int64   `json:"video_id"`
	VideoName  string  `json:"video_name"`
	FrameIndex int     `json:"frame_index"`
	Distance   float64 `json:"distance"`
}

// ingestJSON mirrors the /api/v1/ingest success body.
type ingestJSON struct {
	VideoID     int64   `json:"video_id"`
	NumFrames   int     `json:"num_frames"`
	KeyFrameIDs []int64 `json:"key_frame_ids"`
}

// searchK is the result count every benchmark search asks for.
const searchK = 10

func (f *httpFixture) search(jpeg []byte, req int64) ([]matchJSON, error) {
	var out struct {
		Matches []matchJSON `json:"matches"`
	}
	err := f.do(http.MethodPost, "/api/v1/search?k="+strconv.Itoa(searchK), "image/jpeg", jpeg, req, &out)
	return out.Matches, err
}

func (f *httpFixture) ingest(c clip, name string, req int64) (ingestJSON, error) {
	var out ingestJSON
	err := f.do(http.MethodPost, "/api/v1/ingest?name="+name, "application/octet-stream", c.cvj, req, &out)
	return out, err
}

func (f *httpFixture) deleteVideo(id int64, req int64) error {
	return f.do(http.MethodDelete, "/api/v1/videos?id="+strconv.FormatInt(id, 10), "", nil, req, nil)
}

// storeBytes is the on-disk size of the store: data file plus WAL.
func storeBytes(path string) (int64, error) {
	var total int64
	for _, p := range []string{path, path + ".wal"} {
		st, err := os.Stat(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// freshStore returns a new, empty store path under dir.
func freshStore(dir, name string) (string, error) {
	sub := filepath.Join(dir, name)
	if err := os.RemoveAll(sub); err != nil {
		return "", err
	}
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(sub, "cbvr.db"), nil
}
