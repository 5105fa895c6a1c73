package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs       submit a JobSpec; 202 queued/coalesced, 200 cached
//	GET    /v1/jobs/{id}  job status (result inline when done); SSE stream
//	                      when the client accepts text/event-stream
//	DELETE /v1/jobs/{id}  cancel a queued or running job
//	GET    /v1/metrics    operational counters as a stats dump
//	GET    /v1/healthz    liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// submitResponse wraps the job status with the admission outcome, so a
// client (and the CI smoke test) can tell a fresh run from a coalesced
// attach from a cache hit without consulting metrics.
type submitResponse struct {
	*JobStatus
	// Outcome is "queued", "coalesced", or "cached".
	Outcome string `json:"outcome"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid job spec: %w", err))
		return
	}
	st, err := s.Submit(&spec)
	if err != nil {
		var rej *RejectError
		if errors.As(err, &rej) {
			if rej.RetryAfter > 0 {
				secs := int(rej.RetryAfter / time.Second)
				if rej.RetryAfter%time.Second != 0 {
					secs++ // round up: retrying early would just be refused again
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
			}
			writeError(w, rej.Code, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := submitResponse{JobStatus: st}
	code := http.StatusAccepted
	switch {
	case st.State == StateDone:
		resp.Outcome = "cached"
		code = http.StatusOK
	case st.Coalesced > 0:
		resp.Outcome = "coalesced"
	default:
		resp.Outcome = "queued"
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if wantsSSE(r) {
		s.streamJob(w, r, id)
		return
	}
	st, err := s.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, statusView(st))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrConflict):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, statusView(st))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	d := s.Metrics()
	js, err := d.JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(js))
}

func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream") ||
		r.URL.Query().Get("watch") == "1"
}

// statusView renders a JobStatus with the result embedded as raw JSON
// (payloads are JSON documents already; double-encoding them as a string
// would be useless to every client).
func statusView(st *JobStatus) map[string]any {
	v := map[string]any{
		"id":    st.ID,
		"type":  st.Type,
		"state": st.State,
	}
	if st.Priority != 0 {
		v["priority"] = st.Priority
	}
	if st.Total > 0 {
		v["done"], v["total"] = st.Done, st.Total
	}
	if st.Coalesced > 0 {
		v["coalesced"] = st.Coalesced
	}
	if st.Cached != "" {
		v["cached"] = st.Cached
	}
	if st.Error != "" {
		v["error"] = st.Error
	}
	if st.Result != nil {
		v["result"] = json.RawMessage(st.Result)
	}
	return v
}

// streamJob serves GET /v1/jobs/{id} as an SSE stream: "progress" events
// while the job runs, one final "state" event when it reaches a terminal
// state, then EOF. A job that is already terminal yields just the final
// event, so `curl -N -H 'Accept: text/event-stream'` always terminates.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, id string) {
	watcher, err := s.Watch(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer watcher.Close()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("serve: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	emit := func(name string, v any) {
		b, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, b)
		fl.Flush()
	}
	progress := func(ev Event) {
		if ev.Type == "progress" {
			emit("progress", map[string]int{"done": ev.Done, "total": ev.Total})
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-watcher.Events:
			progress(ev)
		case <-watcher.Done:
			// select picks among ready cases at random, so progress events
			// sent before Done closed may still be buffered: emit them first.
			for drained := false; !drained; {
				select {
				case ev := <-watcher.Events:
					progress(ev)
				default:
					drained = true
				}
			}
			// Terminal: report the final state (without the payload — SSE
			// frames are news, not result transport; GET fetches the body).
			st, serr := s.Status(id)
			if serr != nil {
				return
			}
			emit("state", map[string]any{"state": st.State, "error": st.Error})
			return
		}
	}
}
