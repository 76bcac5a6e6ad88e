package proxyaff

import (
	"bytes"

	"affinityaccept/internal/http11"
)

// HTTP/1.1 helpers for the relay path. The head grammar is shared with
// httpaff in internal/http11; what remains here is specific to the
// *upstream* side of an exchange, where the proxy is the client.

// idempotentMethod reports whether the request method is safe to
// replay on a fresh connection after a stale pooled connection failed
// before yielding a response byte. A write failure does not prove the
// backend never *processed* the request — only idempotent methods
// (RFC 9110 §9.2.2, matching net/http.Transport's retry set) may be
// repeated without risking double execution.
func idempotentMethod(m []byte) bool {
	return http11.EqualFold(m, "get") || http11.EqualFold(m, "head") ||
		http11.EqualFold(m, "options") || http11.EqualFold(m, "trace")
}

// upgradeToken is the Connection option that asks for a protocol switch.
var upgradeToken = []byte("upgrade")

// hopByHop reports whether the header named key is connection-scoped
// (RFC 9110 §7.6.1) and must not be forwarded across the proxy in
// either direction.
func hopByHop(key []byte) bool {
	switch len(key) {
	case 2:
		return http11.EqualFold(key, "te")
	case 7:
		return http11.EqualFold(key, "trailer") || http11.EqualFold(key, "upgrade")
	case 10:
		return http11.EqualFold(key, "connection") || http11.EqualFold(key, "keep-alive")
	case 16:
		return http11.EqualFold(key, "proxy-connection")
	case 17:
		return http11.EqualFold(key, "transfer-encoding")
	case 18:
		return http11.EqualFold(key, "proxy-authenticate")
	case 19:
		return http11.EqualFold(key, "proxy-authorization")
	}
	return false
}

// parseStatusLine extracts the status code from an upstream status line
// ("HTTP/1.1 200 OK"; the reason phrase is optional) and reports
// whether the upstream speaks keep-alive by default (HTTP/1.1). ok is
// false on anything else.
func parseStatusLine(line []byte) (code int, keepAlive, ok bool) {
	const prefix = len("HTTP/1.x ") // status code starts at 9
	if len(line) < prefix+3 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return 0, false, false
	}
	if v := line[7]; v == '1' {
		keepAlive = true
	} else if v != '0' {
		return 0, false, false
	}
	for _, c := range line[prefix : prefix+3] {
		if c < '0' || c > '9' {
			return 0, false, false
		}
		code = code*10 + int(c-'0')
	}
	if len(line) > prefix+3 && line[prefix+3] != ' ' {
		return 0, false, false
	}
	return code, keepAlive, true
}

// responseHead is one upstream response head, walked in place as its
// bytes arrive through the grammar shared with httpaff.
type responseHead struct {
	http11.Head
	code      int
	keepAlive bool // whether the upstream connection persists
	next      int  // where the walk resumes; once done, the head's end
}

// walk parses the complete lines of buf, the head's bytes read so far,
// resuming where the last call stopped, and once the head is done, its
// status line. upgrade reports that the request asked to switch
// protocols, the one case a 101 is relayed. A non-empty fault is the
// 502 text for a head the relay refuses.
func (h *responseHead) walk(buf []byte, upgrade bool) (done bool, fault string) {
	var err error
	if h.next, done, err = h.Walk(buf, 0, h.next, maxUpstreamLength); err != nil {
		return false, "malformed upstream header: " + err.Error()
	}
	if !done {
		return false, ""
	}
	var ok bool
	if h.code, h.keepAlive, ok = parseStatusLine(h.Start); !ok || h.code < 200 && !(h.code == 101 && upgrade) {
		// 1xx interim responses (and a 101 nobody asked for) are a
		// feature the proxy neither requests (no Expect forwarding of
		// its own) nor relays.
		return false, "unparseable upstream response"
	}
	h.keepAlive = h.KeepAlive(h.keepAlive)
	return true, ""
}
