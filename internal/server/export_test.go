package server

// MaxSweepRequestBytes exposes the POST /sweep body cap to the external
// front-end tests.
const MaxSweepRequestBytes = maxSweepRequestBytes
