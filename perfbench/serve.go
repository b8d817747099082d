package main

// The served path: deploy the corpus through the public rdffrag API,
// serve it through (*rdffrag.Server).Handler() on a loopback listener,
// and drive it over HTTP from this process.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"rdffrag"
)

// deployConfig is the offline-pipeline configuration every workload
// deploys with; the traced build mirrors it.
var deployConfig = rdffrag.Config{Sites: 4}

// walSync is the WAL fsync policy of the write workload, on the live
// server and on recovery.
const walSync = "always"

// served is one running deployment and the listeners in front of it.
type served struct {
	db   *rdffrag.DB
	srv  *rdffrag.Server
	dur  *rdffrag.Durable
	dir  string
	url  string
	http *http.Server
	// site hosts every site's fragments behind SiteHandler (join only).
	site    *http.Server
	siteURL string
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns http.ErrServerClosed once Close runs
	return hs, "http://" + ln.Addr().String(), nil
}

// deploy builds and serves one deployment of c. remoteSites puts every
// site behind a SiteHandler on a second listener; dir, when not empty,
// makes the server durable there. It returns the time from Open until
// the listener answers /healthz.
func deploy(c *corpus, remoteSites bool, dir string) (*served, time.Duration, error) {
	start := time.Now()
	s := &served{db: rdffrag.Open(deployConfig), dir: dir}
	if _, err := s.db.LoadNTriples(bytes.NewReader(c.nt)); err != nil {
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	dep, err := s.db.Deploy(c.log)
	if err != nil {
		return nil, 0, fmt.Errorf("deploy: %w", err)
	}
	var cfg rdffrag.ServerConfig
	if remoteSites {
		if s.site, s.siteURL, err = listen(dep.SiteHandler(rdffrag.SiteConfig{})); err != nil {
			return nil, 0, err
		}
		cfg.Remote.Sites = make(map[int]string)
		for id := 0; id < deployConfig.Sites; id++ {
			cfg.Remote.Sites[id] = s.siteURL
		}
	}
	if dir != "" {
		if s.dur, err = rdffrag.OpenDurable(rdffrag.DurabilityConfig{Dir: dir, Sync: walSync}); err != nil {
			s.close()
			return nil, 0, err
		}
		if err := s.dur.Bootstrap(dep); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("bootstrap: %w", err)
		}
		cfg.Durable = s.dur
	}
	s.srv = dep.StartServer(cfg)
	if s.http, s.url, err = listen(s.srv.Handler()); err != nil {
		s.close()
		return nil, 0, err
	}
	resp, err := http.Get(s.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// close shuts the deployment down cleanly and removes its data directory.
func (s *served) close() {
	s.stopListeners()
	if s.srv != nil {
		s.srv.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (s *served) stopListeners() {
	if s.http != nil {
		s.http.Close()
	}
	if s.site != nil {
		s.site.Close()
	}
}

// newClient returns an HTTP client holding at most one connection, so
// each load goroutine owns exactly one loopback connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends body and reads the whole response into buf, returning the
// status code.
func post(ctx context.Context, c *http.Client, method, url, body string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

var errTruncated = errors.New("truncated SPARQL results document")

// countBindings returns the length of results.bindings in a SPARQL 1.1
// JSON results document without decoding its terms. The first
// "bindings" key is the results array: head.vars holds only strings, and
// a variable named "bindings" can appear as a key only inside that
// array.
func countBindings(doc []byte) (int, error) {
	key := []byte(`"bindings"`)
	off := 0
	for {
		i := bytes.Index(doc[off:], key)
		if i < 0 {
			return 0, errTruncated
		}
		off += i + len(key)
		rest := bytes.TrimLeft(doc[off:], " \t\r\n")
		if len(rest) > 0 && rest[0] == ':' {
			rest = bytes.TrimLeft(rest[1:], " \t\r\n")
			if len(rest) == 0 || rest[0] != '[' {
				return 0, errTruncated
			}
			doc = rest
			break
		}
	}
	n, depth := 0, 0
	inStr, esc := false, false
	for _, c := range doc {
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{', '[':
			if depth == 1 && c == '{' {
				n++
			}
			depth++
		case '}', ']':
			depth--
			if depth == 0 {
				return n, nil
			}
		}
	}
	return 0, errTruncated
}
