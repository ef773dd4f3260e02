// Package netsim is a lockorder fixture standing in for the real fabric: the
// send-path table matches by (package last element, receiver, method).
package netsim

// Network mimics the fabric entry point.
type Network struct{}

// Send mimics the fabric send API.
func (n *Network) Send(src, dst int, payload any, size int) {}
