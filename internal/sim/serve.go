package sim

// Server is a background process that waits until it has work, serves it, and
// repeats until stopped: the engine's LGWR, ARCH, CKPT, PMON and MMON, the
// tuning controller's CTL, and a stand-by's LNS shippers, RFS receiver and
// managed recovery all run on one.
type Server struct {
	ready   func() bool
	serve   func(p *Proc) bool
	wake    Cond
	proc    *Proc
	running bool
}

// Serve starts a process named name that waits until ready reports work,
// calls serve, and repeats until Stop, or until serve returns false. The
// server waits on a Cond of its own: one started again after Stop is a new
// Server, so no killed predecessor waits where its successor is woken.
func (k *Kernel) Serve(name string, ready func() bool, serve func(p *Proc) bool) *Server {
	s := &Server{ready: ready, serve: serve, running: true}
	s.proc = k.Go(name, s.loop)
	return s
}

// Every starts a server named name that sleeps every, then calls tick, for as
// long as it runs.
func (k *Kernel) Every(name string, every Duration, tick func(p *Proc)) *Server {
	return k.Serve(name, always, func(p *Proc) bool {
		p.Sleep(every)
		tick(p)
		return true
	})
}

func always() bool { return true }

// Wake tells the server that ready may now report work. A nil or stopped
// server ignores it.
func (s *Server) Wake() {
	if s.Running() {
		s.wake.Signal(s.proc.k)
	}
}

// Stop ends the server; a nil or stopped one ignores it. A serve that stops
// its own server ends after that serve without waiting again.
func (s *Server) Stop() {
	if !s.Running() {
		return
	}
	s.running = false
	s.proc.Kill()
}

// Running reports whether the server was started and has not stopped, by
// Stop or by a serve that returned false.
func (s *Server) Running() bool { return s != nil && s.running }

// loop is the server process. A stopped server's process is killed, so a
// Wait that returns finds it still running.
func (s *Server) loop(p *Proc) {
	for s.running {
		for !s.ready() {
			s.wake.Wait(p)
		}
		if !s.serve(p) {
			s.running = false
		}
	}
}
