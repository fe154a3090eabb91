package lockguardtest

import "sync"

type store struct {
	mu sync.Mutex
	rw sync.RWMutex

	n     int            // guarded by mu
	m     map[string]int // guarded by mu
	state int            // guarded by rw
	// guarded by nothere
	bogus int // want `guarded-by annotation names "nothere", which is not a sibling sync.Mutex/RWMutex field`
	// guarded by mu or rw
	both int // want `guarded-by annotation names more than one mutex \("guarded by mu or rw"\): a field has one guard`
	free int
}

func newStore() *store {
	st := &store{m: make(map[string]int)}
	st.n = 1 // constructor-local: unshared, exempt
	return st
}

func (s *store) serve() {}

func newServingStore() *store {
	st := &store{m: make(map[string]int)}
	st.n = 1 // still exempt: nothing else can see st yet
	go st.serve()
	st.n = 2 // want `st.n written without st.mu held`
	return st
}

func (s *store) good() {
	s.mu.Lock()
	s.n++
	s.m["k"] = 1
	delete(s.m, "gone")
	s.mu.Unlock()
}

func (s *store) deferGood() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func (s *store) bad() int {
	return s.n // want `s.n read without s.mu held`
}

func (s *store) badWrite() {
	s.n = 1 // want `s.n written without s.mu held`
}

func (s *store) afterUnlock() {
	s.mu.Lock()
	s.n = 1
	s.mu.Unlock()
	s.n = 2 // want `s.n written without s.mu held`
}

func (s *store) earlyReturn(cond bool) int {
	s.mu.Lock()
	if cond {
		v := s.n
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	return s.free
}

func (s *store) condUnlock(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
	}
	s.n = 3 // want `s.n written without s.mu held`
}

func (s *store) rlockRead() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.state // ok: a read lock satisfies a read
}

func (s *store) rlockWrite() {
	s.rw.RLock()
	s.state = 1 // want `s.state written without s.rw held`
	s.rw.RUnlock()
}

func (s *store) setLocked() {
	s.n = 7 // ok: Locked suffix asserts the caller holds the guards
}

func (s *store) spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.n++ // want `s.n written without s.mu held`
	}()
	s.n++
}

func (s *store) journal(fn func()) { fn() }

func (s *store) withClosure() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal(func() {
		s.n++ // ok: the literal runs where it appears, under the lock
	})
}

// dualRead keeps a retired suppression comment: it silences nothing.
func (s *store) dualRead() int {
	//lint:dbdht lockguard golden test of a justified dual-lock suppression
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state // want `s.state read without s.rw held`
}

func (s *store) escape() *int {
	return &s.n // want `s.n written without s.mu held`
}

// recover keeps a retired directive: it exempts nothing.
//
//dbdht:exclusive
func (s *store) recover() {
	s.n = 9                         // want `s.n written without s.mu held`
	s.m = map[string]int{"seed": 1} // want `s.m written without s.mu held`
}
