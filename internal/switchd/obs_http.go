package switchd

import (
	"net/http"
	"strconv"

	"repro/internal/switchd/api"
)

// Observability endpoints for the tracing subsystem:
//
//	GET /v1/debug/spans            completed traces from the tail-sampled ring
//	GET /v1/debug/spans?blocked=1  blocked traces only
//	GET /v1/debug/spans?trace=ID   one trace by 32-hex id
//	GET /v1/debug/spans?limit=N    the N most recent

func (ctl *Controller) handleDebugSpans(w http.ResponseWriter, r *http.Request) {
	if ctl.tracer == nil {
		writeErrorCode(w, http.StatusNotFound, api.CodeNotFound, "span tracing disabled (Config.Spans.Capacity < 0)")
		return
	}
	traces := ctl.tracer.Snapshot()
	q := r.URL.Query()
	if q.Get("blocked") == "1" {
		filtered := traces[:0]
		for _, t := range traces {
			if t.Blocked {
				filtered = append(filtered, t)
			}
		}
		traces = filtered
	}
	if want := q.Get("trace"); want != "" {
		filtered := traces[:0]
		for _, t := range traces {
			if t.TraceID == want {
				filtered = append(filtered, t)
			}
		}
		traces = filtered
	}
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeErrorCode(w, http.StatusBadRequest, api.CodeBadRequest, "want ?limit=<non-negative int>")
			return
		}
		if n < len(traces) {
			traces = traces[len(traces)-n:]
		}
	}
	kept, dropped := ctl.tracer.Stats()
	writeJSON(w, http.StatusOK, SpansResponse{Kept: kept, Dropped: dropped, Traces: traces})
}
