package main

import (
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"teledrive/internal/hub"
)

// TestLocalModeCompletes drives one lossy session on the in-process
// hub: run returns nil only when the session ended "completed".
func TestLocalModeCompletes(t *testing.T) {
	if err := run([]string{"-duration", "1s", "-delay", "20ms", "-drop", "0.02", "-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
}

// TestConnectMode joins a hub the test serves and drives a
// delta-streamed session on it to completion, with /healthz answering
// on -telemetry-addr while it runs.
func TestConnectMode(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := hub.New(hub.Config{Workers: 1})
	served := make(chan error, 1)
	go func() { served <- h.Serve(ln) }()
	defer func() {
		h.Close()
		_ = ln.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	// A free port for the ops server: the test must know where to poll.
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opsAddr := opsLn.Addr().String()
	_ = opsLn.Close()

	ran := make(chan error, 1)
	go func() {
		ran <- run([]string{"-connect", ln.Addr().String(), "-duration", "1s", "-delta",
			"-delay", "20ms", "-drop", "0.02", "-telemetry-addr", opsAddr})
	}()
	healthy := false
	for {
		select {
		case err := <-ran:
			if err != nil {
				t.Fatal(err)
			}
			if !healthy {
				t.Fatal("-telemetry-addr: /healthz never answered during the session")
			}
			return
		case <-time.After(20 * time.Millisecond):
			if !healthy {
				if resp, err := http.Get("http://" + opsAddr + "/healthz"); err == nil {
					healthy = resp.StatusCode == http.StatusOK
					_ = resp.Body.Close()
				}
			}
		}
	}
}

// TestRunRejectsUnknownNames fails fast on a subject or scenario the
// libraries do not know.
func TestRunRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-subject", "T99"}, `unknown subject "T99"`},
		{[]string{"-scenario", "nowhere", "-addr", "127.0.0.1:0"}, `unknown scenario "nowhere"`},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %s", tc.args, err, tc.want)
		}
	}
}
