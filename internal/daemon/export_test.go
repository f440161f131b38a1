package daemon

// Submit admits a request without waiting for it, for the tests that
// watch admission, draining and priority order from outside the package.
func (s *Server) Submit(req Request, done func(*Result)) error { return s.submit(req, done) }
