package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"faultsec/internal/campaign"
)

// HTTPWorker drives a remote worker node (any campaignd instance) over
// its PathShards and PathHealthz endpoints.
type HTTPWorker struct {
	base string
	hc   *http.Client
}

// NewHTTPWorker returns a worker client for the node at baseURL (e.g.
// "http://127.0.0.1:8081"). client may be nil for http.DefaultClient; the
// client must not set an overall timeout — per-attempt deadlines come
// from the coordinator's lease context.
func NewHTTPWorker(baseURL string, client *http.Client) *HTTPWorker {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPWorker{base: strings.TrimRight(baseURL, "/"), hc: client}
}

// Name is the worker's base URL.
func (w *HTTPWorker) Name() string { return w.base }

// Healthy probes GET /healthz; any non-200 answer (including the drain
// 503) or transport error marks the worker unhealthy.
func (w *HTTPWorker) Healthy(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+PathHealthz, nil)
	if err != nil {
		return err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck // probe
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: %s healthz: status %d", w.base, resp.StatusCode)
	}
	return nil
}

// RunShard posts the spec and consumes the NDJSON result stream. It
// returns a nil error, with the done-line's work counters, only after the
// terminating done-line arrives with a run count matching the lines seen;
// a truncated stream (worker crash), an error line (engine failure), a
// non-200 status, or a transport error all fail the attempt for the
// coordinator to retry.
func (w *HTTPWorker) RunShard(ctx context.Context, spec ShardSpec, emit func(int, *campaign.WireResult)) (ShardWork, error) {
	body, err := json.Marshal(&spec)
	if err != nil {
		return ShardWork{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+PathShards, bytes.NewReader(body))
	if err != nil {
		return ShardWork{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return ShardWork{}, fmt.Errorf("fleet: %s: %w", w.base, err)
	}
	defer resp.Body.Close() //nolint:errcheck // stream
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return ShardWork{}, fmt.Errorf("fleet: %s shard %d: status %d: %s",
			w.base, spec.Shard, resp.StatusCode, bytes.TrimSpace(msg))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	runs := 0
	for sc.Scan() {
		var line shardLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return ShardWork{}, fmt.Errorf("fleet: %s shard %d: corrupt stream line: %w", w.base, spec.Shard, err)
		}
		switch {
		case line.Error != "":
			return ShardWork{}, fmt.Errorf("fleet: %s shard %d: worker error: %s", w.base, spec.Shard, line.Error)
		case line.Done:
			if line.Runs != runs {
				return ShardWork{}, fmt.Errorf("fleet: %s shard %d: done-line counts %d runs, saw %d",
					w.base, spec.Shard, line.Runs, runs)
			}
			return line.ShardWork, nil
		case line.Result != nil:
			runs++
			emit(line.Idx, line.Result)
		default:
			return ShardWork{}, fmt.Errorf("fleet: %s shard %d: unrecognized stream line %q",
				w.base, spec.Shard, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return ShardWork{}, fmt.Errorf("fleet: %s shard %d: stream: %w", w.base, spec.Shard, err)
	}
	if err := ctx.Err(); err != nil {
		return ShardWork{}, err
	}
	return ShardWork{}, errors.New("fleet: " + w.base + ": stream truncated before done-line (worker died mid-shard?)")
}
