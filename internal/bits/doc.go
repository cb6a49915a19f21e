// Package bits provides bit-exact message payloads for the ring algorithms.
//
// The bit complexity results of Mansour & Zaks are stated in terms of the
// total number of bits transmitted over the ring, so every message payload in
// this repository is a bits.String whose length is accounted exactly by the
// ring engine. The package offers a Writer/Reader pair for composing and
// parsing payloads out of fixed-width fields, booleans, letters, and
// self-delimiting Elias gamma/delta encoded integers. Self-delimiting codes
// are what make the O(n log n) counter-based algorithms honest: a counter of
// value v costs Θ(log v) bits and can be decoded without out-of-band length
// information.
//
// Bits are packed most significant first and the last byte is zero-padded.
// The codec moves up to 64 bits per step: a Writer field is one big-endian
// word store, a whole γ or δ codeword is one field whenever it fits in 64
// bits, and a Reader field is a shift of a 64-bit window loaded from the
// payload, whose leading zeros give a γ prefix in one step. The Reader never
// loads at or past the end of a payload's bytes, because payloads are views
// into arenas where the next bytes belong to other messages.
package bits
