//! A line-protocol connection that keeps the raw response bytes, so
//! responses can be compared byte for byte.

use egocensus::server::{Request, Response, TableData};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// No single request of the benchmark may take longer than this; one
/// that does counts as a failed (timed-out) operation.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    pub fn set_read_timeout(&self, t: Duration) -> std::io::Result<()> {
        self.writer.set_read_timeout(Some(t))
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// One response line, without its newline.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// Send one request line and read its response line.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Send, receive and decode, timing from send until the response is
    /// fully decoded. Returns the raw line, the decoded response and the
    /// latency.
    pub fn timed(&mut self, line: &str) -> std::io::Result<(String, Response, Duration)> {
        let t = Instant::now();
        self.send(line)?;
        let raw = self.recv()?;
        let resp = Response::decode(&raw)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok((raw, resp, t.elapsed()))
    }

    /// A request that must succeed with a table (set-up steps).
    pub fn must(&mut self, req: &Request) -> Result<TableData, String> {
        let raw = self
            .roundtrip(&req.encode())
            .map_err(|e| format!("{req:?}: {e}"))?;
        match Response::decode(&raw) {
            Ok(Response::Table(t)) => Ok(t),
            Ok(other) => Err(format!("{req:?}: unexpected response {other:?}")),
            Err(e) => Err(format!("{req:?}: undecodable response: {e}")),
        }
    }

    pub fn stats(&mut self) -> Result<TableData, String> {
        self.must(&Request::Stats)
    }
}

pub fn query_line(sql: &str) -> String {
    Request::Query {
        sql: sql.to_string(),
        shard: None,
    }
    .encode()
}

/// Difference of one `stats` counter between two snapshots.
pub fn delta(before: &TableData, after: &TableData, name: &str) -> i64 {
    after.stat(name).unwrap_or(0) - before.stat(name).unwrap_or(0)
}

/// FNV-1a of a response line: runs keep hashes, not 8 KiB bodies.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
