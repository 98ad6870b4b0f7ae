// Package serve is the online inference gateway: a long-lived HTTP
// classification service over the backend registry, the layer that turns
// the batch-offline experiment runner's classifiers into something that
// serves live traffic.
//
// Requests arrive one frame at a time (POST /v1/classify, frame by
// dataset coordinate or image payload) and are coalesced into dynamic
// micro-batches per (backend, options) key: a batch flushes when it
// reaches the backend's preferred size or when the max-latency timer
// expires, whichever comes first, so the CNN and YOLO backends get one
// batched forward pass per flush instead of N single-item forwards.
// Around that core sits the production shell: a warm backend pool opened
// from a JSON Config (reusing backend.Spec), per-route admission control
// with bounded queues, an LRU result cache keyed by (frame, options),
// JSON health and metrics endpoints, and graceful drain.
//
// # The 503 / Retry-After contract
//
// When a route's admission queue is full, the gateway sheds the request
// with 503 Service Unavailable, a Retry-After header in delta-seconds,
// and an llmserve-shaped JSON error body ({"error": {"message", "type",
// "request_id"}}). This mirrors internal/llmserve's 429 semantics on
// purpose: llmclient's retry loop — ParseRetryAfter, jittered backoff,
// the zero-seconds-is-no-guidance rule — interoperates with both
// services unchanged.
package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/dataset"
	"nbhd/internal/geoindex"
	"nbhd/internal/llmserve"
	"nbhd/internal/prompt"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/tensor"
)

// Config is the gateway's JSON-loadable configuration. The zero value of
// every knob takes a production-sane default, so a config file only
// names its backends.
type Config struct {
	// Backends maps route names to backend specs; the pool opens every
	// entry at startup so the first request never pays a cold start
	// (supervised kinds train during New, not during traffic).
	Backends map[string]backend.Spec `json:"backends"`
	// MaxBatch sets the coalesced batch size, overriding each
	// backend's PreferredBatch when positive (an operator tuning knob:
	// CPU-backed routes want small micro-batches, accelerator-backed
	// ones their preferred size). Zero uses the backend's
	// PreferredBatch (minimum 1); 1 disables coalescing — every
	// request dispatches alone, the degraded gateway the loadgen
	// benchmark compares against.
	MaxBatch int `json:"max_batch,omitempty"`
	// BatchDelayMS is the max-latency flush timer in milliseconds: a
	// partial batch dispatches this long after its first request even if
	// it never fills. Zero defaults to 3ms; negative dispatches every
	// request immediately.
	BatchDelayMS int `json:"batch_delay_ms,omitempty"`
	// MaxDispatch caps concurrent Classify dispatches per route — the
	// model-replica budget. Each in-flight dispatch pins its own
	// scratch (an im2col workspace for the NN backends), so a node
	// bounds this the way it would bound GPU streams. Zero defers to
	// the backend's advertised MaxConcurrency; negative forces
	// unbounded.
	MaxDispatch int `json:"max_dispatch,omitempty"`
	// MaxQueue bounds each route's admitted-but-unfinished requests.
	// Requests beyond it are shed with 503 + Retry-After. Zero defaults
	// to 256.
	MaxQueue int `json:"max_queue,omitempty"`
	// RetryAfterSeconds is advertised on every shed 503 so well-behaved
	// clients pace their retries. Zero defaults to 1; negative omits the
	// header (clients fall back to their own backoff).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// CacheSize is the LRU result cache's entry budget. Zero defaults to
	// 1024; negative disables the cache (every request reaches the
	// coalescer — what the loadgen benchmark wants).
	CacheSize int `json:"cache_size,omitempty"`
	// MaxImageBytes caps a decoded image upload; zero defaults to 8 MiB
	// (matching llmserve).
	MaxImageBytes int `json:"max_image_bytes,omitempty"`
	// DefaultRenderSize is the resolution for coordinate-addressed frames
	// when the backend does not require one; zero defaults to 96 (the
	// LLM render size).
	DefaultRenderSize int `json:"default_render_size,omitempty"`
}

// ParseConfig decodes a JSON config, rejecting unknown fields so typos
// fail loudly at boot instead of silently serving defaults.
func ParseConfig(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("serve: parse config: %w", err)
	}
	if dec.More() {
		return Config{}, fmt.Errorf("serve: parse config: trailing data after JSON object")
	}
	return cfg, nil
}

func (c Config) withDefaults() Config {
	if c.BatchDelayMS == 0 {
		c.BatchDelayMS = 3
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	}
	if c.RetryAfterSeconds == 0 {
		c.RetryAfterSeconds = 1
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxImageBytes == 0 {
		c.MaxImageBytes = 8 << 20
	}
	if c.DefaultRenderSize == 0 {
		c.DefaultRenderSize = 96
	}
	return c
}

// Options supplies the run environment a Server is built into.
type Options struct {
	// Env is handed to backend.OpenWith for spec kinds that train (yolo,
	// cnn); nil is fine for stateless kinds.
	Env backend.Env
	// Frames enables coordinate-addressed requests ({"frame": {"index":
	// N}}) against this render cache; nil restricts the gateway to image
	// payloads.
	Frames *dataset.RenderCache
	// Backends are pre-opened backends mounted as routes alongside the
	// config's specs (tests inject fakes, the loadgen harness shares one
	// trained model across gateway variants). The caller keeps ownership:
	// Close does not close injected backends. Names must not collide
	// with config specs.
	Backends map[string]backend.Backend
}

// Server is the classification gateway. Build one with New, mount
// Handler on an http.Server, and on shutdown call Drain, then
// http.Server.Shutdown, then Close — in that order, so every admitted
// request finishes with a real answer before the backend pool is
// released.
type Server struct {
	cfg    Config
	frames *dataset.RenderCache
	routes map[string]*route
	names  []string
	// results is the shared LRU answer cache; nil when disabled.
	results *lru
	start   time.Time
	reqSeq  atomic.Int64

	draining atomic.Bool
	// baseCtx outlives any single request: dispatched batches answer
	// every co-batched waiter even if the triggering client hangs up,
	// and drain lets in-flight batches finish. Close cancels it.
	baseCtx context.Context
	cancel  context.CancelFunc

	// owned are the spec-opened backends Close releases (injected ones
	// stay with their owner).
	owned     []backend.Backend
	closeOnce sync.Once
	closeErr  error

	// geo is the lazily built spatial index over the attached dataset's
	// coordinates (see spatial.go); unused without Options.Frames.
	geoOnce sync.Once
	geo     *geoindex.Index
}

// New opens every configured backend into a warm pool and assembles the
// gateway. The context governs opening only (it cancels supervised
// training); the server's own lifetime ends at Close.
func New(ctx context.Context, cfg Config, opts Options) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends)+len(opts.Backends) == 0 {
		return nil, fmt.Errorf("serve: config has no backends")
	}
	s := &Server{
		cfg:    cfg,
		frames: opts.Frames,
		routes: make(map[string]*route, len(cfg.Backends)+len(opts.Backends)),
		start:  time.Now(),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	if cfg.CacheSize > 0 {
		s.results = newLRU(cfg.CacheSize)
	}
	for name, b := range opts.Backends {
		if b == nil {
			return nil, fmt.Errorf("serve: injected backend %q is nil", name)
		}
		s.routes[name] = s.newRoute(name, b)
	}
	// Open specs in sorted order so supervised kinds train in a
	// deterministic sequence.
	names := make([]string, 0, len(cfg.Backends))
	for name := range cfg.Backends {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, dup := s.routes[name]; dup {
			_ = s.Close()
			return nil, fmt.Errorf("serve: backend %q both injected and configured", name)
		}
		b, err := backend.OpenWith(ctx, cfg.Backends[name], opts.Env)
		if err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("serve: open backend %q: %w", name, err)
		}
		s.owned = append(s.owned, b)
		s.routes[name] = s.newRoute(name, b)
	}
	for name := range s.routes {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	return s, nil
}

func (s *Server) newRoute(name string, b backend.Backend) *route {
	caps := b.Capabilities()
	maxBatch := s.cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = caps.PreferredBatch
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	delay := time.Duration(s.cfg.BatchDelayMS) * time.Millisecond
	if delay < 0 {
		delay = 0
	}
	rt := &route{
		srv:      s,
		name:     name,
		b:        b,
		caps:     caps,
		maxBatch: maxBatch,
		delay:    delay,
		admit:    make(chan struct{}, s.cfg.MaxQueue),
		coal:     make(map[string]*coalescer),
		met:      newRouteMetrics(),
	}
	dispatch := s.cfg.MaxDispatch
	if dispatch == 0 {
		dispatch = caps.MaxConcurrency
	}
	if dispatch > 0 {
		rt.dispatchSem = make(chan struct{}, dispatch)
	}
	return rt
}

// Routes returns the mounted route names, sorted.
func (s *Server) Routes() []string { return append([]string(nil), s.names...) }

// Drain marks the server as draining: /healthz flips to 503 so load
// balancers stop routing here, while already-admitted requests keep
// being served. Pair it with http.Server.Shutdown, which stops
// accepting connections and waits for in-flight handlers.
func (s *Server) Drain() { s.draining.Store(true) }

// Close cancels in-flight dispatches and releases the spec-opened
// backend pool (injected backends stay with their owner). Call it after
// http.Server.Shutdown has drained the handlers.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		var errs []error
		for _, b := range s.owned {
			if err := backend.Close(b); err != nil {
				errs = append(errs, err)
			}
		}
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}

// Handler returns the gateway's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", s.handleClassify)
	mux.HandleFunc("/v1/nearest", s.handleNearest)
	mux.HandleFunc("/v1/neighborhood", s.handleNeighborhood)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metricsz", s.handleMetrics)
	return mux
}

// httpError is a request failure destined for an llmserve-shaped error
// body.
type httpError struct {
	status int
	typ    string
	msg    string
}

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, typ: "invalid_request_error", msg: fmt.Sprintf(format, args...)}
}

// write503 sheds a request, advertising the configured Retry-After (the
// contract documented in the package comment).
func (s *Server) write503(w http.ResponseWriter, msg, reqID string) {
	if secs := s.cfg.RetryAfterSeconds; secs > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	llmserve.WriteError(w, http.StatusServiceUnavailable, "overloaded", msg, reqID)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	reqID := fmt.Sprintf("srv-%06d", s.reqSeq.Add(1))
	if r.Method != http.MethodPost {
		llmserve.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST", reqID)
		return
	}
	var req ClassifyRequest
	// Body bound: the largest legal request is one max-size image in
	// base64 (4/3 expansion) plus small JSON scaffolding.
	limit := int64(s.cfg.MaxImageBytes)*2 + 1<<20
	if err := json.NewDecoder(io.LimitReader(r.Body, limit)).Decode(&req); err != nil {
		llmserve.WriteError(w, http.StatusBadRequest, "invalid_request_error", "empty or malformed JSON body: "+err.Error(), reqID)
		return
	}
	rt, ok := s.routes[req.Backend]
	if !ok {
		llmserve.WriteError(w, http.StatusNotFound, "unknown_backend",
			fmt.Sprintf("unknown backend %q (serving: %v)", req.Backend, s.names), reqID)
		return
	}
	opts, herr := requestOptions(&req)
	if herr != nil {
		llmserve.WriteError(w, herr.status, herr.typ, herr.msg, reqID)
		return
	}
	item, frameKey, herr := s.resolveFrame(rt, &req)
	if herr != nil {
		llmserve.WriteError(w, herr.status, herr.typ, herr.msg, reqID)
		return
	}

	rt.met.request()
	// Admission control: the bounded queue counts every admitted
	// request until its response is written; overflow sheds.
	select {
	case rt.admit <- struct{}{}:
	default:
		rt.met.shedOne()
		s.write503(w, fmt.Sprintf("backend %q queue full (%d in flight)", rt.name, cap(rt.admit)), reqID)
		return
	}
	defer func() { <-rt.admit }()

	start := time.Now()
	key := ShardKey(rt.name, rt.caps.Quantized, opts, frameKey)
	if s.results != nil {
		if ans, ok := s.results.get(key); ok {
			rt.met.cacheHit()
			rt.met.okOne(time.Since(start))
			writeJSON(w, http.StatusOK, ClassifyResponse{
				Backend:    rt.name,
				Frame:      item.ID,
				Indicators: indicatorNames(opts.Indicators),
				Answers:    ans,
				Cached:     true,
				RequestID:  reqID,
			})
			return
		}
	}

	res, err := rt.enqueue(r.Context(), frameKey, item, opts)
	if err != nil {
		if r.Context().Err() != nil {
			// The client hung up; there is nobody to answer. The
			// batch (if any) still served its other members.
			rt.met.failOne()
			return
		}
		rt.met.failOne()
		if s.baseCtx.Err() != nil {
			s.write503(w, "server is shutting down", reqID)
			return
		}
		llmserve.WriteError(w, http.StatusInternalServerError, "backend_error", err.Error(), reqID)
		return
	}
	if s.results != nil {
		s.results.add(key, res.answers)
	}
	rt.met.okOne(time.Since(start))
	writeJSON(w, http.StatusOK, ClassifyResponse{
		Backend:    rt.name,
		Frame:      item.ID,
		Indicators: indicatorNames(opts.Indicators),
		Answers:    res.answers,
		BatchSize:  res.batchSize,
		RequestID:  reqID,
	})
}

// requestOptions lowers the wire request to backend options, normalizing
// defaults so semantically identical requests share a coalescer key. It
// is deliberately free of server state: the fleet router runs the same
// canonicalization through RequestShardKey.
func requestOptions(req *ClassifyRequest) (backend.Options, *httpError) {
	var opts backend.Options
	if len(req.Indicators) == 0 {
		inds := scene.Indicators()
		opts.Indicators = inds[:]
	} else {
		opts.Indicators = make([]scene.Indicator, len(req.Indicators))
		for i, name := range req.Indicators {
			ind, err := scene.ParseIndicator(name)
			if err != nil {
				return backend.Options{}, badRequest("%v", err)
			}
			opts.Indicators[i] = ind
		}
	}
	opts.Language = prompt.English
	if req.Language != "" {
		lang, err := prompt.ParseLanguage(req.Language)
		if err != nil {
			return backend.Options{}, badRequest("%v", err)
		}
		opts.Language = lang
	}
	opts.Mode = prompt.Parallel
	if req.Mode != "" {
		mode, err := prompt.ParseMode(req.Mode)
		if err != nil {
			return backend.Options{}, badRequest("%v", err)
		}
		opts.Mode = mode
	}
	opts.Temperature = req.Temperature
	opts.TopP = req.TopP
	opts.Nonce = req.Nonce
	return opts, nil
}

// resolveFrame turns the request's frame reference into a backend item
// plus the frame part of its cache key.
func (s *Server) resolveFrame(rt *route, req *ClassifyRequest) (backend.Item, string, *httpError) {
	refs := 0
	if req.Frame.Index != nil {
		refs++
	}
	if req.Frame.ImageF32Base64 != "" {
		refs++
	}
	if req.Frame.ImagePNGBase64 != "" {
		refs++
	}
	if refs != 1 {
		return backend.Item{}, "", badRequest("frame needs exactly one of index, image_f32_base64, image_png_base64 (got %d)", refs)
	}
	switch {
	case req.Frame.Index != nil:
		if s.frames == nil {
			return backend.Item{}, "", badRequest("this gateway serves no dataset; address frames by image payload")
		}
		size := rt.caps.RenderSize
		if size == 0 {
			size = s.cfg.DefaultRenderSize
		}
		ex, err := s.frames.Example(*req.Frame.Index, size)
		if err != nil {
			return backend.Item{}, "", badRequest("%v", err)
		}
		return backend.Item{ID: ex.ID, Image: ex.Image}, fmt.Sprintf("idx:%d@%d", *req.Frame.Index, size), nil
	case req.Frame.ImageF32Base64 != "":
		raw, herr := s.decodeImagePayload(req.Frame.ImageF32Base64)
		if herr != nil {
			return backend.Item{}, "", herr
		}
		img, err := render.DecodeRawF32(req.Frame.Width, req.Frame.Height, raw)
		if err != nil {
			return backend.Item{}, "", badRequest("image is not a valid raw f32 buffer: %v", err)
		}
		return backend.Item{ID: "upload", Image: img}, "img:" + pixelHash(img), nil
	default:
		raw, herr := s.decodeImagePayload(req.Frame.ImagePNGBase64)
		if herr != nil {
			return backend.Item{}, "", herr
		}
		// A tiny compressed PNG can declare enormous dimensions, so
		// bound the decoded pixel buffer (W·H·3 float32) by the same
		// cap the raw-f32 path implies before png.Decode allocates it.
		cfgPNG, err := png.DecodeConfig(bytes.NewReader(raw))
		if err != nil {
			return backend.Item{}, "", badRequest("image is not valid PNG: %v", err)
		}
		if decoded := int64(cfgPNG.Width) * int64(cfgPNG.Height) * render.Channels * 4; cfgPNG.Width <= 0 || cfgPNG.Height <= 0 || decoded > int64(s.cfg.MaxImageBytes) {
			return backend.Item{}, "", &httpError{
				status: http.StatusRequestEntityTooLarge,
				typ:    "payload_too_large",
				msg:    fmt.Sprintf("decoded image %dx%d exceeds limit of %d bytes", cfgPNG.Width, cfgPNG.Height, s.cfg.MaxImageBytes),
			}
		}
		img, err := render.DecodePNG(bytes.NewReader(raw))
		if err != nil {
			return backend.Item{}, "", badRequest("image is not valid PNG: %v", err)
		}
		return backend.Item{ID: "upload", Image: img}, "img:" + pixelHash(img), nil
	}
}

// decodeImagePayload base64-decodes an image payload, enforcing the size
// cap before allocating the decoded buffer.
func (s *Server) decodeImagePayload(b64 string) ([]byte, *httpError) {
	if base64.StdEncoding.DecodedLen(len(b64)) > s.cfg.MaxImageBytes {
		return nil, &httpError{
			status: http.StatusRequestEntityTooLarge,
			typ:    "payload_too_large",
			msg:    fmt.Sprintf("image payload exceeds limit of %d bytes", s.cfg.MaxImageBytes),
		}
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, badRequest("image is not valid base64: %v", err)
	}
	return raw, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:        "ok",
		Draining:      s.draining.Load(),
		Backends:      s.Routes(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	status := http.StatusOK
	if h.Draining {
		// Draining flips healthz unhealthy so load balancers stop
		// routing here; admitted requests still complete.
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// Metrics snapshots the gateway's counters — what /metricsz serves.
func (s *Server) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		Routes:        make(map[string]RouteMetrics, len(s.routes)),
	}
	if s.results != nil {
		snap.CacheEntries, snap.CacheCapacity = s.results.size()
	}
	for name, rt := range s.routes {
		rm := rt.met.snapshot(len(rt.admit), cap(rt.admit))
		rm.Quantized = rt.caps.Quantized
		if cs, ok := backend.StatsOf(rt.b); ok {
			rm.Compute = &cs
		}
		snap.Routes[name] = rm
	}
	snap.Compute = tensor.Stats()
	return snap
}
