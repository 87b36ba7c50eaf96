//! The benchmark's HTTP/1.1 client.  It frames a response by its
//! `Content-Length`, sends no `Connection: close`, and keeps its
//! connection for the next request whenever the server leaves it open —
//! so a daemon that learns keep-alive shows its gain with no edit here.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed response plus where the client's time went.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// TCP connect (0 on a reused connection).
    pub connect: Duration,
    /// Request written → first response byte.
    pub ttfb: Duration,
    /// First response byte → last body byte.
    pub body_read: Duration,
}

/// A client bound to one daemon; one request in flight at a time.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<TcpStream>,
    /// Requests answered and TCP connections opened, for the reuse ratio.
    pub requests: u64,
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            conn: None,
            requests: 0,
            connects: 0,
        }
    }

    pub fn get(&mut self, path: &str) -> Result<Reply, String> {
        self.request("GET", path, "")
    }

    pub fn post(&mut self, path: &str, body: &str) -> Result<Reply, String> {
        self.request("POST", path, body)
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
        if !body.is_empty() {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        head.push_str(body);
        // A kept connection may have been closed by the server while it
        // sat idle; that shows as a failed write or an empty read, and
        // is retried once on a fresh connection.
        if let Some(stream) = self.conn.take() {
            if let Ok(reply) = self.exchange(stream, Duration::ZERO, head.as_bytes()) {
                return Ok(reply);
            }
        }
        let started = Instant::now();
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
            .map_err(|e| format!("connect: {e}"))?;
        self.connects += 1;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.timeout));
        let _ = stream.set_write_timeout(Some(self.timeout));
        self.exchange(stream, started.elapsed(), head.as_bytes())
    }

    fn exchange(
        &mut self,
        mut stream: TcpStream,
        connect: Duration,
        request: &[u8],
    ) -> Result<Reply, String> {
        stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        let written = Instant::now();
        let mut buf = Vec::with_capacity(4096);
        let mut chunk = [0u8; 16 * 1024];
        let mut first_byte = None;
        let head_end = loop {
            if let Some(at) = find(&buf, b"\r\n\r\n") {
                break at + 4;
            }
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("read head: {e}"))?;
            if n == 0 {
                return Err("connection closed before the response head".to_string());
            }
            first_byte.get_or_insert_with(Instant::now);
            buf.extend_from_slice(&chunk[..n]);
        };
        let first_byte = first_byte.expect("the loop read at least one chunk");
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head is not UTF-8")?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or("malformed status line")?;
        let mut length = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or("response carries no Content-Length")?;
        let mut body = buf.split_off(head_end);
        if body.len() > length {
            return Err(format!("body longer than Content-Length {length}"));
        }
        let have = body.len();
        body.resize(length, 0);
        stream
            .read_exact(&mut body[have..])
            .map_err(|e| format!("body shorter than Content-Length {length}: {e}"))?;
        let done = Instant::now();
        if close {
            // The announced length must be the whole body: nothing but
            // end-of-stream may follow it.
            match stream.read(&mut chunk) {
                Ok(0) => {}
                Ok(_) => return Err(format!("bytes after Content-Length {length}")),
                Err(e) => return Err(format!("waiting for close: {e}")),
            }
        } else {
            self.conn = Some(stream);
        }
        self.requests += 1;
        Ok(Reply {
            status,
            body,
            connect,
            ttfb: first_byte - written,
            body_read: done - first_byte,
        })
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Pulls `"key":<integer>` out of a JSON body without parsing it all.
pub fn json_usize(body: &[u8], key: &str) -> Option<usize> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split(&format!("\"{key}\":")).nth(1)?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Percent-encodes a path segment or query value (labels carry `:`,
/// `+` and spaces).
pub fn encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for b in text.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub that answers `per_conn` requests on each connection, then
    /// closes it (announcing the close on the last one).
    fn stub(
        per_conn: usize,
        conns: usize,
        body: &'static str,
        announce: Option<usize>,
    ) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for _ in 0..conns {
                let (mut stream, _) = listener.accept().unwrap();
                for i in 0..per_conn {
                    let mut seen = Vec::new();
                    let mut byte = [0u8; 1];
                    while !seen.ends_with(b"\r\n\r\n") {
                        if stream.read(&mut byte).unwrap() == 0 {
                            return;
                        }
                        seen.push(byte[0]);
                    }
                    let last = if i + 1 == per_conn {
                        "Connection: close\r\n"
                    } else {
                        ""
                    };
                    let announced = announce.unwrap_or(body.len());
                    let _ = write!(
                        stream,
                        "HTTP/1.1 200 OK\r\nContent-Length: {announced}\r\n{last}\r\n{body}"
                    );
                }
            }
        });
        addr
    }

    #[test]
    fn frames_by_content_length_and_reuses_an_open_connection() {
        let mut client = Client::new(stub(3, 2, "hello", None), Duration::from_secs(2));
        for _ in 0..6 {
            let reply = client.get("/x").unwrap();
            assert_eq!(
                (reply.status, reply.body.as_slice()),
                (200, b"hello".as_slice())
            );
        }
        // Three requests per connection: the client kept each one open
        // until the server announced the close.
        assert_eq!((client.requests, client.connects), (6, 2));
    }

    #[test]
    fn one_connection_per_request_when_the_server_always_closes() {
        let mut client = Client::new(stub(1, 4, "{}", None), Duration::from_secs(2));
        for _ in 0..4 {
            assert!(client.get("/x").unwrap().connect > Duration::ZERO);
        }
        assert_eq!((client.requests, client.connects), (4, 4));
    }

    #[test]
    fn rejects_a_body_that_disagrees_with_content_length() {
        let mut long = Client::new(stub(1, 1, "hello", Some(3)), Duration::from_secs(2));
        assert!(long.get("/x").unwrap_err().contains("Content-Length 3"));
        let mut short = Client::new(stub(1, 1, "hello", Some(9)), Duration::from_millis(300));
        assert!(short
            .get("/x")
            .unwrap_err()
            .contains("shorter than Content-Length 9"));
    }

    #[test]
    fn reads_an_integer_field_from_the_head_of_a_body() {
        let body = br#"{"status":"ok","epoch":12,"group_count":345}"#;
        assert_eq!(json_usize(body, "epoch"), Some(12));
        assert_eq!(json_usize(body, "group_count"), Some(345));
        assert_eq!(json_usize(body, "status"), None);
        assert_eq!(json_usize(body, "absent"), None);
    }

    #[test]
    fn encodes_reserved_bytes() {
        assert_eq!(encode("P3:C12"), "P3%3AC12");
        assert_eq!(encode("a+b c"), "a%2Bb%20c");
        assert_eq!(encode("plain-1.0_~"), "plain-1.0_~");
    }
}
