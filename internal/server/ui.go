package server

// This file serves the paper's web application (Figs. 2, 9, 10) on the
// API's mux: query-by-frame search with a thumbnail result grid, a video
// page stepping through key frames, and the administrator's upload, delete
// and reindex operations. Every route runs through Server.ServeHTTP and
// shares the API's admission classes, body guard and error table.

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"html/template"
	"net/http"
	"strconv"

	"cbvr/internal/admission"
)

var pageTmpl = template.Must(template.New("page").Parse(`<!doctype html>
<html><head><title>CBVR — Content Based Video Retrieval</title>
<style>
body{font-family:sans-serif;margin:2em;background:#fafafa}
h1{color:#234}
.grid{display:flex;flex-wrap:wrap;gap:12px}
.card{border:1px solid #ccc;background:#fff;padding:8px;border-radius:4px;text-align:center}
.card img{display:block;margin-bottom:4px}
.dist{color:#666;font-size:0.8em}
table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:4px 10px}
form{margin:1em 0}
</style></head><body>
<h1>Content Based Video Retrieval</h1>
{{block "body" .}}{{end}}
</body></html>`))

var homeTmpl = template.Must(template.Must(pageTmpl.Clone()).Parse(`{{define "body"}}
<h2>Query by example frame</h2>
<form action="/search" method="POST" enctype="multipart/form-data">
<input type="file" name="image" accept="image/jpeg" required>
<input type="number" name="k" value="12" min="1" max="100">
<button type="submit">Search</button>
</form>
<h2>Video store ({{len .Videos}} videos, {{.KeyFrames}} key frames)</h2>
<table><tr><th>V_ID</th><th>V_NAME</th><th>bytes</th><th></th><th></th></tr>
{{range .Videos}}<tr><td>{{.ID}}</td><td><a href="/video?id={{.ID}}">{{.Name}}</a></td><td>{{.VideoLen}}</td>
<td><form action="/admin/delete" method="POST" style="margin:0"><input type="hidden" name="id" value="{{.ID}}"><button>delete</button></form></td>
<td><form action="/admin/reindex" method="POST" style="margin:0"><input type="hidden" name="id" value="{{.ID}}"><button>reindex</button></form></td></tr>{{end}}
</table>
<form action="/admin/reindex" method="POST"><button>Reindex all videos</button></form>
<h2>Admin: upload video (CVJ container)</h2>
<form action="/admin/upload" method="POST" enctype="multipart/form-data">
<input type="file" name="video" required> name: <input type="text" name="name">
<button type="submit">Upload</button>
</form>
{{end}}`))

var searchTmpl = template.Must(template.Must(pageTmpl.Clone()).Parse(`{{define "body"}}
<h2>Results ({{len .Matches}})</h2>
<p><a href="/">new query</a></p>
<div class="grid">
{{range .Matches}}
<div class="card">
<a href="/video?id={{.VideoID}}"><img src="/frame?id={{.KeyFrameID}}" alt="key frame {{.KeyFrameID}}" width="160"></a>
<div>{{.VideoName}} #{{.FrameIndex}}</div>
<div class="dist">d = {{printf "%.4f" .Distance}}</div>
</div>
{{end}}
</div>
{{end}}`))

var videoTmpl = template.Must(template.Must(pageTmpl.Clone()).Parse(`{{define "body"}}
<h2>{{.Info.Name}} (video {{.Info.ID}})</h2>
<p><a href="/">back</a> · <a href="/download?id={{.Info.ID}}">download container</a></p>
<div class="grid">
{{range .Frames}}
<div class="card">
<img src="data:image/jpeg;base64,{{.B64}}" width="160" alt="frame {{.Index}}">
<div>frame #{{.Index}}</div>
<div class="dist">bucket [{{.Min}},{{.Max}}] · {{.Major}} major regions</div>
</div>
{{end}}
</div>
{{end}}`))

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	vids, err := s.eng.Store().ListVideos(nil)
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	nk, err := s.eng.Store().CountKeyFrames(nil)
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	s.render(w, homeTmpl, map[string]any{"Videos": vids, "KeyFrames": nk})
}

func (s *Server) handleUISearch(w http.ResponseWriter, r *http.Request) {
	matches, ok := s.search(w, r, 100)
	if !ok {
		return
	}
	s.render(w, searchTmpl, map[string]any{"Matches": matches})
}

func (s *Server) handleVideo(w http.ResponseWriter, r *http.Request) {
	id, ok := idParam(w, r)
	if !ok {
		return
	}
	info, found, err := s.eng.Store().GetVideoInfo(nil, id)
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	if !found {
		http.NotFound(w, r)
		return
	}
	kfs, err := s.eng.Store().KeyFramesOfVideo(nil, id)
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	type frameView struct {
		Index, Min, Max, Major int
		B64                    string
	}
	var frames []frameView
	for _, kf := range kfs {
		// Each iteration reads a full key-frame blob from the store; stop
		// early when the client is gone instead of decoding for nobody.
		if err := r.Context().Err(); err != nil {
			return
		}
		img, ok, err := s.eng.Store().KeyFrameImage(nil, kf.ID)
		if err != nil || !ok {
			continue
		}
		frames = append(frames, frameView{
			Index: kf.FrameIndex,
			Min:   kf.Min, Max: kf.Max,
			Major: kf.MajorRegions,
			B64:   base64.StdEncoding.EncodeToString(img),
		})
	}
	s.render(w, videoTmpl, map[string]any{"Info": info, "Frames": frames})
}

func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	id, ok := idParam(w, r)
	if !ok {
		return
	}
	img, found, err := s.eng.Store().KeyFrameImage(nil, id)
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	if !found {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "image/jpeg")
	w.Write(img)
}

func (s *Server) handleDownload(w http.ResponseWriter, r *http.Request) {
	id, ok := idParam(w, r)
	if !ok {
		return
	}
	raw, found, err := s.eng.Store().VideoBytes(nil, id)
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	if !found {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=video-%d.cvj", id))
	w.Write(raw)
}

// handleAdminUpload ingests a multipart "video" part named by the "name"
// field, falling back to the part's filename. Unlike /api/v1/ingest it
// parses the whole form first (FormFile: up to 32 MiB in memory, the rest
// spilled to temp files), because a browser may send "name" after the
// file part. The engine then decodes the parsed part frame by frame.
func (s *Server) handleAdminUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodErr(w, http.MethodPost)
		return
	}
	tk, ok := s.admitIngest(w, r)
	if !ok {
		return
	}
	defer tk.Release()
	s.guardBody(w, r)
	file, hdr, ok := s.formFile(w, r, "video", admission.Ingest)
	if !ok {
		return
	}
	defer file.Close()
	name := r.FormValue("name")
	if name == "" {
		name = hdr.Filename
	}
	if _, err := s.eng.IngestVideoStream(r.Context(), name, file); err != nil {
		s.writeErr(w, fmt.Errorf("ingest failed: %w", err), admission.Ingest)
		return
	}
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Server) handleAdminDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodErr(w, http.MethodPost)
		return
	}
	s.guardBody(w, r)
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		badRequest(w, "bad id")
		return
	}
	if s.deleteVideo(w, r, id) {
		http.Redirect(w, r, "/", http.StatusSeeOther)
	}
}

func (s *Server) handleAdminReindex(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.reindex(w, r); ok {
		http.Redirect(w, r, "/", http.StatusSeeOther)
	}
}

func idParam(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil || id <= 0 {
		badRequest(w, "bad id")
		return 0, false
	}
	return id, true
}

func (s *Server) render(w http.ResponseWriter, t *template.Template, data any) {
	var buf bytes.Buffer
	if err := t.Execute(&buf, data); err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	buf.WriteTo(w)
}
