package server

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// errOverloaded is the gate's "slots and queue both full" verdict, mapped
// to 503 + Retry-After at the HTTP layer.
var errOverloaded = errors.New("server at capacity")

// gate is the concurrent-query admission controller: n executing slots
// plus a bounded wait queue layered on top of them. It bounds the
// server-side cost of a traffic burst — at most n query-class requests
// execute at once (each on its own goroutine), at most maxQueue more wait,
// and everything beyond that is turned away immediately instead of piling
// onto the box.
type gate struct {
	slots    chan struct{} // buffered to n; holding a token = executing
	maxQueue int64
	queued   atomic.Int64
}

func newGate(n, queue int) *gate {
	return &gate{slots: make(chan struct{}, n), maxQueue: int64(queue)}
}

// admit blocks until a slot frees up (bounded by the wait queue and the
// request context) or reports errOverloaded when the queue is full too.
// Callers must release() after a nil return.
func (g *gate) admit(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		return errOverloaded
	}
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gate) release() { <-g.slots }

// rateLimiter is a per-client token bucket: each client accrues rate
// tokens per second up to burst, and every admitted request spends one.
// Clients are keyed by clientKey (remote IP, or the first X-Forwarded-For
// hop when the operator opted in via WithTrustedProxy).
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	clients map[string]*bucket
	now     func() time.Time // injectable clock for tests
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxTrackedClients bounds the limiter's memory: past it, buckets that
// have fully refilled (i.e. idle long enough to be indistinguishable from
// new clients) are swept before admitting a new one.
const maxTrackedClients = 4096

func newRateLimiter(rate float64, burst int) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		clients: make(map[string]*bucket),
		now:     time.Now,
	}
}

// allow spends one token for client, reporting how long until a token is
// available when the bucket is empty.
func (rl *rateLimiter) allow(client string) (retryAfter time.Duration, ok bool) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.now()
	b := rl.clients[client]
	if b == nil {
		if len(rl.clients) >= maxTrackedClients {
			rl.sweep(now)
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.clients[client] = b
	}
	b.tokens = min(rl.burst, b.tokens+now.Sub(b.last).Seconds()*rl.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / rl.rate * float64(time.Second)), false
}

// sweep drops buckets that would be full after refill — idle clients whose
// state carries no information. Callers hold rl.mu.
func (rl *rateLimiter) sweep(now time.Time) {
	for k, b := range rl.clients {
		if b.tokens+now.Sub(b.last).Seconds()*rl.rate >= rl.burst {
			delete(rl.clients, k)
		}
	}
}

// clientKey identifies the client for rate limiting. By default it is the
// remote IP: X-Forwarded-For is client-supplied, so honouring it from a
// directly-connected client would let anyone dodge the limiter (and bloat
// the bucket map) by rotating header values. Only with trustProxy — the
// operator's assertion that a fronting proxy sets the header and strips
// client values — does the first X-Forwarded-For hop take precedence; a
// blank first hop still falls back to the remote IP so malformed headers
// cannot funnel unrelated clients into one shared bucket.
func clientKey(r *http.Request, trustProxy bool) string {
	if trustProxy {
		first, _, _ := strings.Cut(r.Header.Get("X-Forwarded-For"), ",")
		if first = strings.TrimSpace(first); first != "" {
			return first
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// statusWriter records the terminal status code for metrics while staying
// transparent to streaming: it forwards Flush and unwraps for
// http.ResponseController (the NDJSON handler re-arms write deadlines
// through it).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the serving tier's cross-cutting
// concerns: request/latency metrics for every endpoint class, and — for
// the heavy query-class endpoints — per-client rate limiting (429 +
// Retry-After), admission control (503 + Retry-After when the slots and
// queue are both full), and the inflight gauge. Rejected requests never
// reach the handler, so a burst cannot stack walks behind the DB locks.
func (s *Server) instrument(endpoint string, heavy bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			code := sw.status
			if code == 0 {
				code = http.StatusOK // handler wrote nothing: implicit 200
			}
			s.metrics.observe(endpoint, code, time.Since(start))
		}()
		if heavy {
			if s.limiter != nil {
				if wait, ok := s.limiter.allow(clientKey(r, s.trustProxy)); !ok {
					s.metrics.reject("rate_limit")
					sw.Header().Set("Retry-After", retryAfterSeconds(wait))
					writeErr(sw, http.StatusTooManyRequests,
						"rate limit exceeded for this client; retry in %s", retryAfterSeconds(wait)+"s")
					return
				}
			}
			if s.gate != nil {
				if err := s.gate.admit(r.Context()); err != nil {
					if errors.Is(err, errOverloaded) {
						s.metrics.reject("overload")
						sw.Header().Set("Retry-After", "1")
						writeErr(sw, http.StatusServiceUnavailable,
							"server at capacity (%d executing, %d queued); retry shortly",
							cap(s.gate.slots), s.gate.maxQueue)
					} else {
						// The client gave up while queued; nothing useful to say.
						writeErr(sw, http.StatusServiceUnavailable, "canceled while queued: %v", err)
					}
					return
				}
				defer s.gate.release()
			}
			s.metrics.inflight.Add(1)
			defer s.metrics.inflight.Add(-1)
		}
		h(sw, r)
	}
}

// retryAfterSeconds renders a wait as a Retry-After value: whole seconds,
// rounded up, at least 1.
func retryAfterSeconds(wait time.Duration) string {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
