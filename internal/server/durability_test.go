package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"provmin/internal/engine"
	"provmin/internal/persist"
)

func durableServer(t *testing.T, dir string) (*httptest.Server, *engine.Engine, *persist.Log) {
	t.Helper()
	l, err := persist.Open(persist.Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, IngestBatchSize: 8, Persist: l})
	ts := httptest.NewServer(New(eng))
	return ts, eng, l
}

// TestCrashMidIngestCoreByteIdentical is the acceptance scenario: N
// acknowledged ingests, then the WAL writer starts failing mid-ingest (the
// disk "dies"), the process is killed without any shutdown path, and the
// restarted service must answer /core with the exact pre-crash bytes.
func TestCrashMidIngestCoreByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ts, _, l := durableServer(t, dir)

	code, _ := doJSON(t, "POST", ts.URL+"/instances", map[string]string{"initial": "R r1 a a\nR r2 a b\nR r3 b a"})
	if code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	// N acknowledged ingests.
	for i := 0; i < 5; i++ {
		code, body := doJSON(t, "POST", ts.URL+"/instances/i1/tuples", map[string]any{
			"facts": []engine.Fact{{Rel: "R", Tag: fmt.Sprintf("w%d", i), Values: []string{fmt.Sprintf("n%d", i), "a"}}},
		})
		if code != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, code, body)
		}
	}
	coreURL := "/core?instance=i1&q=" + "ans(x)+:-+R(x,y),+R(y,x)"
	code, wantCore := doJSON(t, "GET", ts.URL+coreURL, nil)
	if code != http.StatusOK {
		t.Fatalf("core: %d %s", code, wantCore)
	}

	// The disk dies mid-ingest: the next ingest must NOT be acknowledged.
	l.InjectWriteError(errors.New("injected: wal device gone"))
	code, body := doJSON(t, "POST", ts.URL+"/instances/i1/tuples", map[string]any{
		"facts": []engine.Fact{{Rel: "R", Tag: "lost", Values: []string{"lost", "a"}}},
	})
	if code == http.StatusOK {
		t.Fatalf("ingest acknowledged despite WAL failure: %s", body)
	}
	// SIGKILL: no Close, no flush. Only the HTTP listener is torn down.
	ts.Close()

	ts2, eng2, _ := durableServer(t, dir)
	defer ts2.Close()
	defer eng2.Close()
	code, gotCore := doJSON(t, "GET", ts2.URL+coreURL, nil)
	if code != http.StatusOK {
		t.Fatalf("core after recovery: %d %s", code, gotCore)
	}
	if !bytes.Equal(gotCore, wantCore) {
		t.Errorf("/core not byte-identical after crash recovery:\npre:  %s\npost: %s", wantCore, gotCore)
	}
	// The unacknowledged fact must not have survived.
	if strings.Contains(string(gotCore), "lost") {
		t.Error("unacknowledged ingest resurrected by recovery")
	}
	code, info := doJSON(t, "GET", ts2.URL+"/instances/i1", nil)
	if code != http.StatusOK || !strings.Contains(string(info), `"tuples":8`) {
		t.Errorf("instance after recovery: %d %s (want 8 tuples: 3 seed + 5 acked)", code, info)
	}
}

// TestAdminSnapshotCompact exercises the admin endpoints end to end.
func TestAdminSnapshotCompact(t *testing.T) {
	dir := t.TempDir()
	ts, eng, _ := durableServer(t, dir)
	defer ts.Close()
	defer eng.Close()

	doJSON(t, "POST", ts.URL+"/instances", map[string]string{"initial": "R r1 a a"})
	code, body := doJSON(t, "POST", ts.URL+"/admin/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	var stats struct {
		Shards    int   `json:"shards"`
		Instances int   `json:"instances"`
		Bytes     int64 `json:"bytes"`
		Compacted bool  `json:"compacted"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 4 || stats.Instances != 1 || stats.Bytes == 0 || stats.Compacted {
		t.Errorf("snapshot stats = %+v", stats)
	}
	code, body = doJSON(t, "POST", ts.URL+"/admin/compact", nil)
	if code != http.StatusOK {
		t.Fatalf("compact: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Compacted {
		t.Errorf("compact stats = %+v", stats)
	}
}

// TestAdminSnapshotEphemeral409: asking a memory-only server to persist is
// a configuration conflict.
func TestAdminSnapshotEphemeral409(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	defer eng.Close()
	ts := httptest.NewServer(New(eng))
	defer ts.Close()
	code, body := doJSON(t, "POST", ts.URL+"/admin/snapshot", nil)
	if code != http.StatusConflict {
		t.Fatalf("snapshot on ephemeral server: %d %s, want 409", code, body)
	}
	if !strings.Contains(string(body), "durability disabled") {
		t.Errorf("error body %s", body)
	}
}
