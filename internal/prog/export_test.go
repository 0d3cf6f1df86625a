package prog

// BufCap exposes the capacity of s's lookahead buffer to the external tests.
func BufCap(s *Stream) int { return cap(s.buf) }
