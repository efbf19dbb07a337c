package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/server"
	"repro/leqa"
	"repro/leqa/client"
)

// FuzzRequestSpec throws arbitrary JSON bodies at the three estimation
// endpoints. Whatever the body, the reply must be a client error or a
// success — never a 5xx — every error must be the {"error":…} envelope, an
// estimate must be one JSON record, and a sweep or grid must stream exactly
// one NDJSON row per requested cell. The gate and cell caps are small so
// that generator specs (bounded by benchgen.PredictFTOps before synthesis)
// and large grids stay cheap.
func FuzzRequestSpec(f *testing.F) {
	srv, err := server.New(server.Config{
		MaxGates:     20000,
		MaxCells:     16,
		MaxBodyBytes: 64 << 10,
		Log:          log.New(io.Discard, "", 0),
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	f.Cleanup(ts.Close)

	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"generate":"ham7","params":{"qubitSpeed":1e-320}}`},
		{0, `{"generate":"4bitadder","params":{"grid":"16x16","channelCapacity":3}}`},
		{0, `{"qc":".v a b\n.i a b\nBEGIN\nt2 a b\nEND\n","name":"x","options":{"decompose":false}}`},
		{0, `{"ref":"sha256:0000000000000000000000000000000000000000000000000000000000000000"}`},
		{1, `{"circuits":[{"generate":"ham7"},{"generate":"nope"}],"params":{"tMove":150}}`},
		{2, `{"circuits":[{"generate":"ham7"},{"qc":".v a\n.i a\nBEGIN\nH a\nEND\n"}],"paramSets":[{"grid":"16x16"},{"qubitSpeed":1e-320}]}`},
		{2, `{"circuits":[{"generate":"2bitadder"}],"paramSets":[{"grid":"0x0"}],"options":{"truncation":-1}}`},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}

	paths := []string{"/v1/estimate", "/v1/sweep", "/v1/grid"}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: reply cut short after %d bytes: %v", path, len(reply), err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			var apiErr client.APIError
			if err := json.Unmarshal(reply, &apiErr); err != nil || apiErr.Message == "" {
				t.Fatalf("%s: %d reply is not an error envelope: %q", path, resp.StatusCode, reply)
			}
			return
		default:
			t.Fatalf("%s: status %d: %q", path, resp.StatusCode, reply)
		}

		if path == "/v1/estimate" {
			var rec leqa.ResultRecord
			if err := json.Unmarshal(reply, &rec); err != nil {
				t.Fatalf("estimate reply is not a record: %v: %q", err, reply)
			}
			return
		}
		// The server accepted the request, so its first JSON value decodes;
		// the row count follows from it.
		var req client.GridRequest
		if path == "/v1/sweep" {
			var sw client.SweepRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sw); err != nil {
				t.Fatalf("accepted sweep body does not decode: %v", err)
			}
			req.Circuits = sw.Circuits
		} else if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted grid body does not decode: %v", err)
		}
		want := len(req.Circuits) * max(1, len(req.ParamSets))
		rows := 0
		sc := bufio.NewScanner(bytes.NewReader(reply))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var rec leqa.ResultRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("%s: row %d is not a record: %v: %q", path, rows, err, sc.Bytes())
			}
			rows++
		}
		if rows != want {
			t.Fatalf("%s: %d rows, want %d", path, rows, want)
		}
	})
}
