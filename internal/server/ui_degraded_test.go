package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"cbvr/internal/core"
	"cbvr/internal/synthvid"
	"cbvr/internal/vstore"
	"cbvr/internal/vstore/faultfs"
)

// TestWebUIDegradedMode: once the store is poisoned read-only, the HTML
// admin mutations answer 503 + Retry-After while the listing pages keep
// rendering from the committed snapshot.
func TestWebUIDegradedMode(t *testing.T) {
	ffs := faultfs.New()
	eng, err := core.Open("web.db", core.Options{Store: vstore.Options{FS: ffs}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	v := synthvid.Generate(synthvid.Cartoon, synthvid.Config{Width: 96, Height: 72, Frames: 10, Shots: 2, Seed: 3})
	res, err := eng.IngestFrames(context.Background(), "cartoon_00", v.Frames, v.FPS)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{})

	// Poison via a WAL write fault on a delete attempt.
	fired := false
	ffs.SetInjector(func(op faultfs.Op) faultfs.Action {
		if !fired && op.Kind == faultfs.OpWrite && op.Name == "web.db.wal" {
			fired = true
			return faultfs.ActErr
		}
		return faultfs.ActNone
	})
	form := url.Values{"id": {fmt.Sprint(res.VideoID)}}
	req := httptest.NewRequest(http.MethodPost, "/admin/delete", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	ffs.SetInjector(nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("delete under WAL fault: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("degraded delete 503 missing Retry-After")
	}

	// Sticky: the next mutation fails the same way without any fault armed.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/admin/delete", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("second delete while degraded: %d retry-after=%q", rec.Code, rec.Header().Get("Retry-After"))
	}

	// Reads keep rendering: the home page still lists the resident video.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "cartoon_00") {
		t.Fatalf("home page while degraded: %d", rec.Code)
	}
}
