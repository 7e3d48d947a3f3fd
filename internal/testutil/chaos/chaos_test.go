package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"exterminator/internal/testutil"
)

func TestProxyDropSeversAndRestoreHeals(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer backend.Close()

	p, err := NewProxy(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Disable keep-alives so a healed partition dials fresh instead of
	// reusing a severed connection.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	get := func() (string, error) {
		resp, err := hc.Get(p.URL())
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}

	if body, err := get(); err != nil || body != "ok" {
		t.Fatalf("pass-through: body=%q err=%v", body, err)
	}
	p.Drop()
	if _, err := get(); err == nil {
		t.Fatal("request through a dropped proxy succeeded")
	}
	p.Restore()
	if body, err := get(); err != nil || body != "ok" {
		t.Fatalf("after restore: body=%q err=%v", body, err)
	}
}
