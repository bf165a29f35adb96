package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/snapshot"
	"fraccascade/internal/tree"
)

// verifyQueries is how many queries are checked one by one against the
// oracle before the warm-up.
const verifyQueries = 2048

// wireAnswer is the part of a coopserve answer the oracle checks.
type wireAnswer struct {
	Kind    string `json:"kind"`
	Steps   int64  `json:"steps"`
	Region  int    `json:"region"`
	Cell    int    `json:"cell"`
	Err     string `json:"err"`
	Results []struct {
		Node    int64 `json:"node"`
		Key     int64 `json:"key"`
		Payload int64 `json:"payload"`
	} `json:"results"`
}

type wireResponse struct {
	Answers []wireAnswer `json:"answers"`
}

// oracle answers a workload's queries without the server's search code
// paths: catalog queries by the sequential fractional cascading search
// (cascade.Structure.SearchPath) over the shards of the server's own
// snapshot file, point and spatial queries by brute-force location, which
// the geometry pool did when it drew them.
type oracle struct {
	shards []*cascade.Structure
	pool   *geoPool
}

// newOracle takes the catalog shards from a loaded snapshot store.
func newOracle(store *snapshot.Store, pool *geoPool) (*oracle, error) {
	o := &oracle{pool: pool}
	for i, sh := range store.Shards {
		if sh.Static == nil {
			return nil, fmt.Errorf("snapshot shard %d is not a static shard", i)
		}
		o.shards = append(o.shards, sh.Static.Cascade())
	}
	return o, nil
}

// checkQuery compares one answer with the oracle.
func (o *oracle) checkQuery(q query, a *wireAnswer) error {
	if a.Err != "" {
		return fmt.Errorf("%s query failed: %s", q.Kind, a.Err)
	}
	if a.Kind != q.Kind {
		return fmt.Errorf("answer kind %q for a %s query", a.Kind, q.Kind)
	}
	switch q.Kind {
	case kindCatalog:
		if q.Shard >= len(o.shards) {
			return fmt.Errorf("shard %d not in the snapshot", q.Shard)
		}
		cs := o.shards[q.Shard]
		path := cs.Tree().RootPath(tree.NodeID(q.Node))
		want, err := cs.SearchPath(catalog.Key(q.Key), path)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if len(a.Results) != len(want) {
			return fmt.Errorf("catalog shard %d key %d node %d: %d results, oracle has %d", q.Shard, q.Key, q.Node, len(a.Results), len(want))
		}
		for i, w := range want {
			got := a.Results[i]
			if got.Node != int64(w.Node) || got.Key != int64(w.Key) || got.Payload != int64(w.Payload) {
				return fmt.Errorf("catalog shard %d key %d node %d: result %d is %+v, oracle has node %d key %d payload %d",
					q.Shard, q.Key, q.Node, i, got, w.Node, w.Key, w.Payload)
			}
		}
	case kindPoint:
		if want := o.pool.regions[q.Pool]; a.Region != want {
			return fmt.Errorf("point %v: region %d, oracle has %d", o.pool.points[q.Pool], a.Region, want)
		}
	case kindSpatial:
		if want := o.pool.cells[q.Pool]; a.Cell != want {
			return fmt.Errorf("spatial point %v: cell %d, oracle has %d", o.pool.boxes[q.Pool], a.Cell, want)
		}
	}
	return nil
}

// checkResponse decodes a /query response for qs and checks every answer.
// It returns how many queries failed, the decoded step total, and the
// first mismatch.
func (o *oracle) checkResponse(qs []query, body []byte) (failed int, steps int64, first error) {
	var resp wireResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return len(qs), 0, fmt.Errorf("decode response: %w", err)
	}
	if len(resp.Answers) != len(qs) {
		return len(qs), 0, fmt.Errorf("%d answers for %d queries", len(resp.Answers), len(qs))
	}
	for i, q := range qs {
		steps += resp.Answers[i].Steps
		if err := o.checkQuery(q, &resp.Answers[i]); err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return failed, steps, first
}

// verify sends the workload's first requests one at a time until n queries
// have been checked against the oracle. It returns the number of requests
// used, so the open loop continues the stream after them.
func (o *oracle) verify(ctx context.Context, url string, w *workload, seed int64, n int) (requests int, t tally, err error) {
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}, Timeout: requestTimeout}
	defer client.CloseIdleConnections()
	var qs []query
	var body []byte
	var resp bytes.Buffer
	for t.attempted < n {
		qs = genRequest(w, seed, requests, o.pool, qs[:0])
		body = encodeBody(body[:0], qs, o.pool)
		requests++
		t.attempted += len(qs)
		status, err := post(ctx, client, url, body, "", &resp)
		if err != nil {
			return requests, t, err
		}
		if status != http.StatusOK {
			t.fail(len(qs), fmt.Errorf("verification request %d: HTTP %d: %s", requests-1, status, bytes.TrimSpace(resp.Bytes())))
			continue
		}
		failed, _, first := o.checkResponse(qs, resp.Bytes())
		t.fail(failed, first)
	}
	return requests, t, nil
}

// tally counts attempted and failed queries and keeps the first failure.
type tally struct {
	attempted, failed int
	first             error
}

func (t *tally) fail(n int, err error) {
	t.failed += n
	if t.first == nil && err != nil {
		t.first = err
	}
}
