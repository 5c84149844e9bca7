package obs

import (
	"log/slog"
	"net/http"
	"time"
)

// Request logging. A request's one name is its W3C trace id: the span
// tracer's middleware (inside the wrapped handler) echoes it in the
// traceparent response header, and the completion line logs it, so a
// client-reported failure joins the server's log, its spans, the
// /metrics exemplars and the blocking forensics on the same id.

// traceparentHeader is the canonical form of the W3C header the span
// tracer echoes: "00-<32 hex trace id>-<16 hex span id>-<2 hex flags>".
const traceparentHeader = "Traceparent"

// StatusWriter captures the status code a handler writes (200 until
// WriteHeader says otherwise).
type StatusWriter struct {
	http.ResponseWriter
	Status int
}

func (w *StatusWriter) WriteHeader(code int) {
	w.Status = code
	w.ResponseWriter.WriteHeader(code)
}

// WithRequestLog wraps h: each request is logged on completion with
// method, path, status and elapsed time, plus trace_id when h answered
// with a traceparent header (untraced paths log no id). A nil logger
// uses slog.Default().
func WithRequestLog(h http.Handler, logger *slog.Logger) http.Handler {
	if logger == nil {
		logger = slog.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &StatusWriter{ResponseWriter: w, Status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		attrs := [5]slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.Status),
			slog.Duration("elapsed", time.Since(start)),
		}
		n := 4
		if tp := w.Header().Get(traceparentHeader); len(tp) == 55 && tp[2] == '-' && tp[35] == '-' {
			attrs[n] = slog.String("trace_id", tp[3:35])
			n++
		}
		logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs[:n]...)
	})
}
