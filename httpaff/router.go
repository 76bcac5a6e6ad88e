package httpaff

import "net/http"

// route is one path's registration: an optional any-method handler plus
// method-specific handlers with the precomputed Allow header value a
// 405 response advertises.
type route struct {
	any     HandlerFunc
	methods []methodRoute
	allow   string // "GET, POST" — registration order
}

type methodRoute struct {
	method string // canonical uppercase, e.g. "GET"
	h      HandlerFunc
}

// Router dispatches requests by exact path match, then by method.
// Lookup is a single map index keyed by the request path — Go's
// map[string] index with a []byte conversion does not allocate — plus a
// linear scan of the few registered methods, so routing stays on the
// zero-allocation path.
type Router struct {
	routes map[string]*route
}

// NewRouter returns an empty router: an unregistered path answers 404.
func NewRouter() *Router {
	return &Router{routes: make(map[string]*route)}
}

func (r *Router) route(path string) *route {
	e, ok := r.routes[path]
	if !ok {
		e = &route{}
		r.routes[path] = e
	}
	return e
}

// Handle registers the handler for an exact path, serving every method
// that has no HandleMethod registration of its own. Registration is
// setup-time only: it must not race Serve.
func (r *Router) Handle(path string, h HandlerFunc) {
	r.route(path).any = h
}

// HandleMethod registers the handler for an exact path and method
// (case-sensitive, canonical uppercase per RFC 9110: "GET", "POST",
// ...). A GET registration also serves HEAD (the server suppresses the
// body and keeps the Content-Length, per RFC 9110 §9.3.2) unless an
// explicit HEAD handler is registered. A request for a path that has
// method registrations but matches none of them — and has no Handle
// fallback — is answered 405 with an Allow header listing the
// registered methods. Registration is setup-time only: it must not
// race Serve.
func (r *Router) HandleMethod(method, path string, h HandlerFunc) {
	e := r.route(path)
	for i := range e.methods {
		if e.methods[i].method == method {
			e.methods[i].h = h // re-registration replaces
			return
		}
	}
	e.methods = append(e.methods, methodRoute{method: method, h: h})
	if e.allow == "" {
		e.allow = method
	} else {
		e.allow += ", " + method
	}
}

// Serve dispatches one request; use it as Config.Handler.
func (r *Router) Serve(ctx *RequestCtx) {
	e, ok := r.routes[string(ctx.Path())]
	if !ok {
		ctx.SetStatus(http.StatusNotFound)
		return
	}
	m := ctx.Method()
	for i := range e.methods {
		if string(m) == e.methods[i].method {
			e.methods[i].h(ctx)
			return
		}
	}
	// HEAD falls back to the GET handler: the serializer already
	// suppresses the body while keeping its Content-Length.
	if string(m) == "HEAD" {
		for i := range e.methods {
			if e.methods[i].method == "GET" {
				e.methods[i].h(ctx)
				return
			}
		}
	}
	if e.any != nil {
		e.any(ctx)
		return
	}
	ctx.SetStatus(http.StatusMethodNotAllowed)
	ctx.SetHeader("Allow", e.allow)
}
