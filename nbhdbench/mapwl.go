package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/core"
	"nbhd/internal/fleet"
	"nbhd/internal/geo"
	"nbhd/internal/geoindex"
	"nbhd/internal/scene"
	"nbhd/internal/serve"
	"nbhd/internal/vlm"
)

const (
	mapCoords   = 300
	mapReplicas = 2
	// mapRenderSize is the gateway's default frame size for routes
	// that do not fix one (the committee's LLM render size).
	mapRenderSize = 96
	// mapZipf is the skew of location popularity: the repository's own
	// load generators' default Zipf exponent (-loadgen-skew of
	// nbhdserve and nbhdfleet).
	mapZipf = 1.2
	// mapNearestK is a nearest query's k. A neighborhood query's radius
	// reaches its center's mapHoodCoords nearest coordinates, so every
	// neighborhood costs the same whatever the seed's geography;
	// mapMaxCoords is the request's cap.
	mapNearestK   = 4
	mapHoodCoords = 4
	mapMaxCoords  = 8
	// mapSeqLen is the pre-generated request sequence; runs wrap it.
	mapSeqLen = 1 << 17
)

// mapCommittee is the paper's top-three majority vote.
var mapCommittee = []string{string(vlm.Gemini15Pro), string(vlm.Claude37), string(vlm.Grok2)}

var mapShape = gatewayShape{
	sweepLen:     2000,
	closedSweeps: 16,
	directEvery:  2,
	inflight:     32,
	ladder:       ladderRates(600, 1.07, 40),
	limitMS:      50,
	refRate:      2250, // 40% of capacity: the median passing ladder rung was 5595/s on a 2-vCPU guest
	maxInflight:  192,
}

// group is one corpus coordinate: its four heading frames share it.
type group struct {
	coord  geo.Coordinate
	county string
	radius float64 // feet to its mapHoodCoords-th nearest coordinate, itself first
}

// setupMap builds the map fleet: corpus, frame pre-render, the
// committee oracle, the expected answer of every distinct query, two
// gateway replicas behind a fleet router, and one warm-up sweep.
func setupMap(ctx context.Context, seed int64) (*gatewayEnv, error) {
	pipe, err := core.NewPipeline(core.Config{Coordinates: mapCoords, Seed: seed})
	if err != nil {
		return nil, err
	}
	frames := pipe.Study.Frames
	items, _, err := corpusItems(pipe, mapRenderSize)
	if err != nil {
		return nil, err
	}
	spec := backend.Spec{Kind: "committee", Models: mapCommittee}
	oracleBackend, err := backend.OpenWith(ctx, spec, nil)
	if err != nil {
		return nil, err
	}
	inds := scene.Indicators()
	opts := backend.Options{Indicators: inds[:]}
	answers, err := classifyAll(ctx, oracleBackend, items, opts, 16)
	if err != nil {
		return nil, fmt.Errorf("map oracle: %w", err)
	}
	groups := make([]group, len(frames)/core.FramesPerCoordinate)
	for g := range groups {
		fr := frames[g*core.FramesPerCoordinate]
		groups[g] = group{coord: fr.Scene.Point.Coordinate, county: fr.County}
	}
	for g := range groups {
		hits := scan(groups, groups[g].coord)
		groups[g].radius = hits[min(mapHoodCoords, len(hits))-1].DistanceFeet
	}
	classifyQ, nearestQ, hoodQ, err := mapQueries(groups, items, answers)
	if err != nil {
		return nil, err
	}

	var timed []*timedBackend
	var servers []*serve.Server
	spawn := func(ctx context.Context, idx int, id string) (fleet.Replica, error) {
		b, err := backend.OpenWith(ctx, spec, nil)
		if err != nil {
			return nil, err
		}
		tb := newTimedBackend(b)
		srv, err := serve.New(ctx, serve.Config{}, serve.Options{
			Frames:   pipe.RenderCache(),
			Backends: map[string]backend.Backend{"committee": tb},
		})
		if err != nil {
			return nil, err
		}
		timed = append(timed, tb)
		servers = append(servers, srv)
		return fleet.NewLocalReplica(id, srv)
	}
	sup := fleet.NewSupervisor(fleet.Config{Replicas: mapReplicas, SpillFactor: 1.25}, spawn)
	if err := sup.Start(ctx); err != nil {
		return nil, err
	}
	router := sup.Router(fleet.RouterOptions{QuantizedRoutes: map[string]bool{"committee": false}})
	gw, err := startGateway(router.Handler())
	if err != nil {
		_ = sup.Close()
		return nil, err
	}
	c := newClient(gw.url)
	env := &gatewayEnv{
		gen:      &generator{c: c, seq: mapSequence(seed, len(groups), classifyQ, nearestQ, hoodQ)},
		servers:  servers,
		backends: timed,
		router:   router,
		close: func() {
			c.close()
			gw.close()
			_ = sup.Close()
		},
		evalSweep: directSweep(oracleBackend, items, opts, answers),
		quality: func(ctx context.Context) (float64, error) {
			return qualityScore(ctx, oracleBackend, mapRenderSize)
		},
		check: func(before, after counters) string {
			if n := after.tensor.GEMMCalls - before.tensor.GEMMCalls; n != 0 {
				return fmt.Sprintf("map ran %d GEMM calls; its committee route must not reach the tensor layer", n)
			}
			return ""
		},
	}
	env.replay = func(tr *tracer, m map[string]float64) error {
		replayGeoindex(tr, m, pipe.FrameIndex(), groups)
		return nil
	}
	start := time.Now()
	env.warmup = env.gen.closedLoop(ctx, "warmup", mapShape.sweepLen, mapShape.inflight)
	env.trainSweep = time.Since(start)
	return env, ctx.Err()
}

// scan returns the coordinate groups ordered by (distance, ID) from c,
// the brute-force answer the gateway's spatial index must reproduce.
func scan(groups []group, c geo.Coordinate) []geoindex.Result {
	out := make([]geoindex.Result, len(groups))
	for i, g := range groups {
		out[i] = geoindex.Result{Entry: geoindex.Entry{Coord: g.coord, ID: i}, DistanceFeet: c.DistanceFeet(g.coord)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DistanceFeet != out[j].DistanceFeet {
			return out[i].DistanceFeet < out[j].DistanceFeet
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func wireCoord(c geo.Coordinate) serve.WireCoordinate {
	return serve.WireCoordinate{Lat: c.Lat, Lng: c.Lng}
}

func groupFrames(g int) []int {
	out := make([]int, core.FramesPerCoordinate)
	for i := range out {
		out[i] = g*core.FramesPerCoordinate + i
	}
	return out
}

// mapQueries pre-encodes every distinct map request with its expected
// answer: classify per frame, nearest and neighborhood per coordinate.
func mapQueries(groups []group, items []backend.Item, answers [][]bool) (classifyQ, nearestQ, hoodQ []*query, err error) {
	for i, it := range items {
		idx := i
		body, err := json.Marshal(serve.ClassifyRequest{Backend: "committee", Frame: serve.FrameRef{Index: &idx}})
		if err != nil {
			return nil, nil, nil, err
		}
		classifyQ = append(classifyQ, &query{Method: http.MethodPost, Path: "/v1/classify", Body: body, Key: it.ID, Frame: it.ID, Check: classifyCheck(it.ID, answers[i])})
	}
	inds := scene.Indicators()
	for g, gr := range groups {
		hits := scan(groups, gr.coord)

		var near []serve.NearestResult
		for _, h := range hits[:min(mapNearestK, len(hits))] {
			near = append(near, serve.NearestResult{Coordinate: wireCoord(h.Coord), County: groups[h.ID].county, DistanceFeet: h.DistanceFeet, Frames: groupFrames(h.ID)})
		}
		path := "/v1/nearest?lat=" + strconv.FormatFloat(gr.coord.Lat, 'g', -1, 64) +
			"&lng=" + strconv.FormatFloat(gr.coord.Lng, 'g', -1, 64) + "&k=" + strconv.Itoa(mapNearestK)
		nearestQ = append(nearestQ, &query{Method: http.MethodGet, Path: path, Key: path, Check: nearestCheck(near)})

		within := 0
		for within < len(hits) && hits[within].DistanceFeet <= gr.radius {
			within++
		}
		truncated := within > mapMaxCoords
		locs := []serve.LocationResult{}
		counts := map[string]int{}
		for _, h := range hits[:min(within, mapMaxCoords)] {
			present := []string{}
			for q, ind := range inds {
				hit := false
				for _, f := range groupFrames(h.ID) {
					hit = hit || answers[f][q]
				}
				if hit {
					present = append(present, ind.String())
					counts[ind.String()]++
				}
			}
			locs = append(locs, serve.LocationResult{Coordinate: wireCoord(h.Coord), County: groups[h.ID].county, DistanceFeet: h.DistanceFeet, Present: present})
		}
		lat, lng := gr.coord.Lat, gr.coord.Lng
		body, err := json.Marshal(serve.NeighborhoodRequest{Backend: "committee", Lat: &lat, Lng: &lng, RadiusFeet: gr.radius, MaxCoordinates: mapMaxCoords})
		if err != nil {
			return nil, nil, nil, err
		}
		key := fmt.Sprintf("hood:%d", g)
		hoodQ = append(hoodQ, &query{Method: http.MethodPost, Path: "/v1/neighborhood", Body: body, Key: key, Check: hoodCheck(locs, counts, truncated)})
	}
	return classifyQ, nearestQ, hoodQ, nil
}

func nearestCheck(want []serve.NearestResult) func([]byte) error {
	return func(body []byte) error {
		var resp serve.NearestResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if !reflect.DeepEqual(resp.Results, want) {
			return fmt.Errorf("nearest results %+v, want %+v", resp.Results, want)
		}
		return nil
	}
}

func hoodCheck(locs []serve.LocationResult, counts map[string]int, truncated bool) func([]byte) error {
	return func(body []byte) error {
		var resp serve.NeighborhoodResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Truncated != truncated || !reflect.DeepEqual(resp.Locations, locs) || !reflect.DeepEqual(resp.Counts, counts) {
			return fmt.Errorf("neighborhood %+v %v truncated=%v, want %+v %v truncated=%v",
				resp.Locations, resp.Counts, resp.Truncated, locs, counts, truncated)
		}
		return nil
	}
}

// mapSequence draws the map's request stream from the seed: locations
// by Zipf popularity over a seeded ranking; per request a classify of
// one of the location's frames (60%), a neighborhood sweep around it
// (25%) or a nearest query (15%). The mix is an assumption with no
// measured source; README.md lists it with the load's other choices.
func mapSequence(seed int64, groups int, classifyQ, nearestQ, hoodQ []*query) []*query {
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(groups)
	zipf := rand.NewZipf(rng, mapZipf, 1, uint64(groups-1))
	seq := make([]*query, mapSeqLen)
	for i := range seq {
		g := rank[zipf.Uint64()]
		switch p := rng.Float64(); {
		case p < 0.60:
			seq[i] = classifyQ[g*core.FramesPerCoordinate+rng.Intn(core.FramesPerCoordinate)]
		case p < 0.85:
			seq[i] = hoodQ[g]
		default:
			seq[i] = nearestQ[g]
		}
	}
	return seq
}

// replayGeoindex times the map's query centers against the pipeline's
// frame index: a radius query with each center's neighborhood radius and a k-nearest
// query for the frames of mapNearestK coordinates.
func replayGeoindex(tr *tracer, m map[string]float64, ix *geoindex.Index, groups []group) {
	var rad, knn []float64
	_ = tr.phase("replay.geoindex", func() error {
		for start := time.Now(); time.Since(start) < 250*time.Millisecond; {
			for _, g := range groups {
				t := time.Now()
				_ = ix.Radius(g.coord, g.radius)
				t2 := time.Now()
				_ = ix.KNearest(g.coord, mapNearestK*core.FramesPerCoordinate)
				rad = append(rad, float64(t2.Sub(t).Nanoseconds())/1e3)
				knn = append(knn, float64(time.Since(t2).Nanoseconds())/1e3)
			}
		}
		return nil
	})
	m["geoindex.radius_us"] = median(rad)
	m["geoindex.knearest_us"] = median(knn)
}
