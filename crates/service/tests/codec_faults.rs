//! Wire-codec fault properties: reader resumption under arbitrary stream
//! splits, and the no-torn-replies guarantee of the blocking client.
//!
//! These pin the transport-robustness half of the fault model without a
//! fault plan: however a byte stream is chopped by short reads — including
//! mid-line and mid-UTF-8-sequence — the parsed request sequence is
//! identical, and a reply line that dies mid-transfer is surfaced as a
//! torn-reply error, never as a truncated line the caller could mistake
//! for a complete response.

use amopt_service::wire::{LineAssembler, LineError, MAX_LINE_BYTES};
use amopt_service::TcpQuoteClient;
use std::io::{Read, Write};
use std::net::TcpListener;

/// Seeded xorshift64*, so failures replay.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Feeds `stream` to a fresh assembler in the given chunk sizes and
/// returns everything it produced, in order.
fn assemble(stream: &[u8], splits: &[usize]) -> Vec<Result<String, LineError>> {
    let mut asm = LineAssembler::new();
    let mut produced = Vec::new();
    let mut rest = stream;
    let mut splits = splits.iter().copied();
    while !rest.is_empty() {
        let take = splits.next().unwrap_or(rest.len()).clamp(1, rest.len());
        let (chunk, tail) = rest.split_at(take);
        asm.push(chunk);
        rest = tail;
        while let Some(item) = asm.next_line() {
            produced.push(item);
        }
    }
    while let Some(item) = asm.next_line() {
        produced.push(item);
    }
    produced
}

/// A request stream with short lines, long lines, empty lines, and
/// multi-byte UTF-8 — every split of it must parse identically.
fn valid_stream() -> Vec<u8> {
    let mut stream = Vec::new();
    stream.extend_from_slice(b"{\"id\":1,\"op\":\"metrics\"}\n");
    stream
        .extend_from_slice("{\"id\":2,\"note\":\"smile \u{1F600} \u{00e9}\u{00e9}\"}\n".as_bytes());
    stream.extend_from_slice(b"\n"); // empty line: skipped by the servers, still a line here
    let long = format!("{{\"id\":3,\"pad\":\"{}\"}}\n", "x".repeat(4096));
    stream.extend_from_slice(long.as_bytes());
    stream.extend_from_slice(b"{\"id\":4,\"op\":\"price\",\"spot\":127.62,\"strike\":130}\n");
    stream
}

#[test]
fn every_split_of_a_valid_stream_parses_identically() {
    let stream = valid_stream();
    let whole = assemble(&stream, &[]);
    assert_eq!(whole.len(), 5);
    assert!(whole.iter().all(|r| r.is_ok()), "{whole:?}");

    // Byte-at-a-time: the worst possible peer.
    let trickle: Vec<usize> = vec![1; stream.len()];
    assert_eq!(assemble(&stream, &trickle), whole);

    // 200 seeded random splittings, chunk sizes 1..=17 — these routinely
    // land mid-line and mid-UTF-8-sequence.
    let mut rng = Rng(0x5eed_0001);
    for round in 0..200 {
        let splits: Vec<usize> =
            (0..stream.len()).map(|_| 1 + (rng.next() % 17) as usize).collect();
        assert_eq!(assemble(&stream, &splits), whole, "round {round}: splits {splits:?}");
    }
}

#[test]
fn hostile_streams_reject_identically_across_splits() {
    // (stream, expected tail error) pairs: an over-cap newline-free line
    // with a clean UTF-8 prefix, the same with a multi-byte char straddling
    // the cap, a complete line of raw non-UTF-8, and a valid line followed
    // by garbage — the valid line must still come through first.
    let over_cap_clean = vec![b'x'; MAX_LINE_BYTES + 100];
    let mut over_cap_split_char = vec![b'x'; MAX_LINE_BYTES - 2];
    over_cap_split_char.extend_from_slice("\u{1F600}".as_bytes()); // 4 bytes, straddles the cap
    over_cap_split_char.extend_from_slice(&[b'x'; 64]);
    let raw_garbage = [b'{', 0xFF, 0xFE, 0x80, b'}', b'\n'];
    let mut good_then_garbage = b"{\"id\":7}\n".to_vec();
    good_then_garbage.extend_from_slice(&[0xC3, 0x28, b'\n']); // invalid 2-byte sequence

    type Expected = Vec<Result<String, LineError>>;
    let cases: [(&[u8], Expected); 4] = [
        (&over_cap_clean, vec![Err(LineError::TooLong)]),
        (&over_cap_split_char, vec![Err(LineError::Malformed)]),
        (&raw_garbage, vec![Err(LineError::Malformed)]),
        (&good_then_garbage, vec![Ok(String::from("{\"id\":7}")), Err(LineError::Malformed)]),
    ];
    let mut rng = Rng(0x5eed_0002);
    for (case, (stream, want)) in cases.iter().enumerate() {
        let whole = assemble(stream, &[]);
        assert_eq!(&whole, want, "case {case} (single push)");
        for round in 0..40 {
            let splits: Vec<usize> =
                (0..stream.len()).map(|_| 1 + (rng.next() % 251) as usize).collect();
            assert_eq!(assemble(stream, &splits), whole, "case {case} round {round}");
        }
    }
}

#[test]
fn rejection_is_terminal_even_if_more_complete_lines_follow() {
    let mut stream = vec![0xFFu8, b'\n'];
    stream.extend_from_slice(b"{\"id\":8}\n");
    let got = assemble(&stream, &[1, 1, 3, 3, 2]);
    assert_eq!(got, vec![Err(LineError::Malformed)], "nothing may parse after a rejection");
    let mut asm = LineAssembler::new();
    asm.push(&stream);
    assert_eq!(asm.next_line(), Some(Err(LineError::Malformed)));
    assert_eq!(asm.next_line(), None);
}

#[test]
fn a_reply_torn_mid_line_is_an_error_not_a_truncated_line() {
    // A raw server that sends one complete reply, then half of a second
    // reply, then closes.  The client must deliver the first line whole and
    // surface the second as a torn-reply error — never as a short line.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut sink = [0u8; 256];
        let _ = conn.read(&mut sink); // wait for the request
        conn.write_all(b"{\"id\":1,\"ok\":true,\"price\":8.32}\n").expect("whole reply");
        conn.write_all(b"{\"id\":2,\"ok\":tr").expect("torn reply"); // no newline, then close
    });
    let mut client = TcpQuoteClient::connect(addr).expect("connect");
    client.send("{\"id\":1,\"op\":\"price\"}").expect("send");
    let first = client.recv().expect("complete line delivered whole");
    assert_eq!(first, "{\"id\":1,\"ok\":true,\"price\":8.32}");
    let torn = client.recv().expect_err("mid-line close must not yield a line");
    assert_eq!(torn.kind(), std::io::ErrorKind::InvalidData, "{torn:?}");
    assert!(torn.to_string().contains("torn reply"), "{torn:?}");
    server.join().expect("server thread");
}
