package flight

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// subQueueCap bounds each subscriber's frame queue. A client that
// falls this many frames behind is dropped rather than ever exerting
// backpressure on a publisher. Sized to absorb lifecycle bursts —
// a catalog teardown emits one "stopped" transition per live session
// faster than any reader can drain frames — while still catching a
// genuinely stalled client within one sampling interval's traffic.
const subQueueCap = 256

// Transition is one streamed state change: a session lifecycle event,
// a health flip, a peer loss, a trip.
type Transition struct {
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	Value   int64  `json:"value,omitempty"`
	Session string `json:"session,omitempty"`
	WallNS  int64  `json:"wall_ns"`
}

// MetricDelta is one changed metric in a sampling interval.
type MetricDelta struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Delta int64  `json:"delta"`
}

// metricFrame is the JSON body of one "metrics" SSE event.
type metricFrame struct {
	WallNS  int64         `json:"wall_ns"`
	Changed []MetricDelta `json:"changed"`
}

// sseEvent is one SSE event queued to a subscriber.
type sseEvent struct {
	event string
	data  []byte
}

type subscriber struct {
	ch      chan sseEvent
	session string // ?session= filter ("" = all)
	prefix  string // ?prefix= filter on metric names ("" = all)
	gone    bool   // closed and removed (guarded by Hub.mu)
}

// matchTransition reports whether a transition passes the
// subscriber's filters. Global transitions (no session) always pass
// the session filter so a tenant watching one session still sees
// node-wide failures.
func (s *subscriber) matchTransition(t Transition) bool {
	if s.session != "" && t.Session != "" && t.Session != s.session {
		return false
	}
	if s.prefix != "" && t.Kind == "metric" && !strings.HasPrefix(t.Name, s.prefix) {
		return false
	}
	return true
}

// matchMetric reports whether a metric sample name passes the
// subscriber's filters. The session filter matches the rendered
// session="id" label the service-mode aggregator stamps on tenant
// samples.
func (s *subscriber) matchMetric(name string) bool {
	if s.prefix != "" && !strings.HasPrefix(name, s.prefix) {
		return false
	}
	if s.session != "" && !strings.Contains(name, `session="`+s.session+`"`) {
		return false
	}
	return true
}

// Hub fans observability frames out to SSE subscribers. Delivery is
// strictly non-blocking: each subscriber owns a bounded queue, and a
// publisher that finds the queue full closes and drops the subscriber
// on the spot. Publishers (scheduler hooks, the sampler, session
// lifecycle paths) therefore never wait on a slow or dead client. A
// nil *Hub is inert.
type Hub struct {
	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	dropped atomic.Uint64
	sent    atomic.Uint64
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[*subscriber]struct{})}
}

// Subscribers returns the current live subscriber count.
func (h *Hub) Subscribers() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Dropped returns how many subscribers have been dropped for falling
// behind.
func (h *Hub) Dropped() uint64 {
	if h == nil {
		return 0
	}
	return h.dropped.Load()
}

// Sent returns how many frames have been enqueued to subscribers.
func (h *Hub) Sent() uint64 {
	if h == nil {
		return 0
	}
	return h.sent.Load()
}

// enqueueLocked delivers a frame to one subscriber or drops it.
// Caller holds h.mu, which is what makes close-vs-send race-free.
func (h *Hub) enqueueLocked(s *subscriber, f sseEvent) {
	select {
	case s.ch <- f:
		h.sent.Add(1)
	default:
		// Queue full: the client is stalled. Cut it loose so no
		// publisher ever blocks on it.
		h.removeLocked(s)
		h.dropped.Add(1)
	}
}

func (h *Hub) removeLocked(s *subscriber) {
	if s.gone {
		return
	}
	s.gone = true
	delete(h.subs, s)
	close(s.ch)
}

// PublishEvent streams one transition to every matching subscriber.
// Nil-safe and non-blocking.
func (h *Hub) PublishEvent(t Transition) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) == 0 {
		return
	}
	b, err := json.Marshal(t)
	if err != nil {
		return
	}
	for s := range h.subs {
		if s.matchTransition(t) {
			h.enqueueLocked(s, sseEvent{event: "transition", data: b})
		}
	}
}

// PublishMetrics streams a batch of changed metrics. Each subscriber
// receives only the samples passing its filters; subscribers whose
// filtered view is empty get no frame. Nil-safe and non-blocking.
func (h *Hub) PublishMetrics(wallNS int64, changed []MetricDelta) {
	if h == nil || len(changed) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.subs {
		if s.gone {
			continue
		}
		view := changed
		if s.session != "" || s.prefix != "" {
			view = nil
			for _, d := range changed {
				if s.matchMetric(d.Name) {
					view = append(view, d)
				}
			}
			if len(view) == 0 {
				continue
			}
		}
		b, err := json.Marshal(metricFrame{WallNS: wallNS, Changed: view})
		if err != nil {
			continue
		}
		h.enqueueLocked(s, sseEvent{event: "metrics", data: b})
	}
}

// subscribe registers a new subscriber with the given filters.
func (h *Hub) subscribe(session, prefix string) *subscriber {
	s := &subscriber{
		ch:      make(chan sseEvent, subQueueCap),
		session: session,
		prefix:  prefix,
	}
	h.mu.Lock()
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	return s
}

// unsubscribe removes a subscriber when its handler returns (client
// hung up). Idempotent with a publisher-side drop.
func (h *Hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	h.removeLocked(s)
	h.mu.Unlock()
}

// ServeHTTP is the GET /watch handler: a Server-Sent Events stream of
// "metrics" and "transition" frames. Query parameters:
//
//	?session=<id>   only that tenant's transitions and samples
//	                (plus global transitions)
//	?prefix=<base>  only metric names with this prefix
//
// The stream ends when the client disconnects or when the hub drops
// the subscriber for stalling.
func (h *Hub) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if h == nil {
		http.Error(w, "telemetry streaming disabled", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// An SSE stream outlives any sane server WriteTimeout; clear the
	// per-request deadline so the hosting server can keep a tight
	// timeout for its other endpoints. Best-effort: a server that
	// does not support it just keeps its timeout.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	q := req.URL.Query()
	sub := h.subscribe(q.Get("session"), q.Get("prefix"))
	defer h.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write([]byte("event: hello\ndata: {\"wall_ns\":" +
		jsonInt(time.Now().UnixNano()) + "}\n\n")); err != nil {
		return
	}
	fl.Flush()

	ctx := req.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case f, ok := <-sub.ch:
			if !ok {
				// Dropped by a publisher for stalling.
				return
			}
			if _, err := w.Write([]byte("event: " + f.event + "\ndata: ")); err != nil {
				return
			}
			if _, err := w.Write(f.data); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// jsonInt formats an int64 without pulling in fmt on the stream path.
func jsonInt(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
