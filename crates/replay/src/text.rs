//! Line-oriented text form for hand-written (litmus-style) traces.

use crate::format::{MemTrace, TraceRecord};
use crate::TraceError;
use skipit_boom::Op;

impl MemTrace {
    /// Renders the trace as the text form [`MemTrace::from_text`] parses:
    /// a `cores N` header followed by one record per line.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cores {}", self.cores());
        for r in self.records() {
            let _ = write!(out, "{}", r.core);
            if r.gap > 0 {
                let _ = write!(out, " +{}", r.gap);
            }
            let _ = match r.op {
                Op::Load { addr } => writeln!(out, " load {addr:#x}"),
                Op::Store { addr, value } => writeln!(out, " store {addr:#x} {value}"),
                Op::Cas {
                    addr,
                    expected,
                    new,
                } => writeln!(out, " cas {addr:#x} {expected} {new}"),
                Op::FetchAdd { addr, operand } => {
                    writeln!(out, " fetch_add {addr:#x} {operand}")
                }
                Op::Swap { addr, operand } => writeln!(out, " swap {addr:#x} {operand}"),
                Op::Clean { addr } => writeln!(out, " clean {addr:#x}"),
                Op::Flush { addr } => writeln!(out, " flush {addr:#x}"),
                Op::Inval { addr } => writeln!(out, " inval {addr:#x}"),
                Op::Fence => writeln!(out, " fence"),
                Op::Nop { cycles } => writeln!(out, " nop {cycles}"),
            };
        }
        out
    }

    /// Parses the hand-writable text form. Grammar, one directive or
    /// record per line:
    ///
    /// ```text
    /// # comment — blank lines and everything after '#' are ignored
    /// cores 2                 # header: declared core count (required first)
    /// 0 store 0x1000 42       # <core> <kind> <operands…>
    /// 1 +3 load 0x1000        # optional +gap: cycles since the core's
    /// 0 flush 0x1000          #   previous record (default 0 — as early
    /// 0 fence                 #   as the machine allows)
    /// 1 nop 20                # think time: occupies the frontend 20 cycles
    /// ```
    ///
    /// Kinds and operands: `load a`, `store a v`, `cas a expected new`,
    /// `fetch_add a operand`, `swap a operand`, `clean a`, `flush a`,
    /// `inval a`, `fence`, `nop cycles`. Numbers are decimal or `0x` hex.
    ///
    /// # Errors
    ///
    /// [`TraceError::Text`] naming the offending 1-based line for any
    /// malformed directive, unknown kind, bad operand count or number, or
    /// record naming an undeclared core, a misaligned word address, or
    /// ending past the run watchdog.
    pub fn from_text(text: &str) -> Result<Self, TraceError> {
        let mut trace: Option<MemTrace> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let mut fields = body.split_whitespace();
            let first = fields.next().expect("non-empty line has a field");
            if first == "cores" {
                if trace.is_some() {
                    return Err(err(line, "duplicate `cores` header"));
                }
                let n: u64 = number(
                    fields
                        .next()
                        .ok_or_else(|| err(line, "missing core count"))?,
                )
                .ok_or_else(|| err(line, "bad core count"))?;
                if !(1..=32).contains(&n) {
                    return Err(err(line, "core count must be 1..=32"));
                }
                if fields.next().is_some() {
                    return Err(err(line, "trailing fields after `cores`"));
                }
                trace = Some(MemTrace::new(n as u32));
                continue;
            }
            let trace = trace
                .as_mut()
                .ok_or_else(|| err(line, "first directive must be `cores N`"))?;
            let core: u64 = number(first).ok_or_else(|| err(line, "bad core number"))?;
            let mut kind = fields
                .next()
                .ok_or_else(|| err(line, "missing op kind"))?
                .to_string();
            let mut gap = 0u64;
            if let Some(g) = kind.strip_prefix('+') {
                gap = number(g).ok_or_else(|| err(line, "bad +gap"))?;
                kind = fields
                    .next()
                    .ok_or_else(|| err(line, "missing op kind after +gap"))?
                    .to_string();
            }
            let mut arg = |what: &str| -> Result<u64, TraceError> {
                let f = fields
                    .next()
                    .ok_or_else(|| err(line, &format!("missing {what}")))?;
                number(f).ok_or_else(|| err(line, &format!("bad {what}")))
            };
            let op = match kind.as_str() {
                "load" => Op::Load { addr: arg("addr")? },
                "store" => Op::Store {
                    addr: arg("addr")?,
                    value: arg("value")?,
                },
                "cas" => Op::Cas {
                    addr: arg("addr")?,
                    expected: arg("expected")?,
                    new: arg("new")?,
                },
                "fetch_add" => Op::FetchAdd {
                    addr: arg("addr")?,
                    operand: arg("operand")?,
                },
                "swap" => Op::Swap {
                    addr: arg("addr")?,
                    operand: arg("operand")?,
                },
                "clean" => Op::Clean { addr: arg("addr")? },
                "flush" => Op::Flush { addr: arg("addr")? },
                "inval" => Op::Inval { addr: arg("addr")? },
                "fence" => Op::Fence,
                "nop" => Op::Nop {
                    cycles: arg("cycles")?,
                },
                other => return Err(err(line, &format!("unknown op kind `{other}`"))),
            };
            if fields.next().is_some() {
                return Err(err(line, "trailing fields after record"));
            }
            let core = u32::try_from(core).map_err(|_| err(line, "bad core number"))?;
            trace
                .push(TraceRecord { core, gap, op })
                .map_err(|e| err(line, &e.to_string()))?;
        }
        trace.ok_or_else(|| err(0, "empty trace: no `cores N` header"))
    }
}

fn err(line: usize, msg: &str) -> TraceError {
    TraceError::Text {
        line,
        msg: msg.to_string(),
    }
}

fn number(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LITMUS: &str = "\
# store-buffering litmus shape
cores 2
0 store 0x1000 1
0 +2 load 0x1080
1 store 0x1080 1
1 +2 load 0x1000
0 fence
1 fence
";

    #[test]
    fn text_parses_and_roundtrips_through_binary() {
        let t = MemTrace::from_text(LITMUS).unwrap();
        assert_eq!(t.cores(), 2);
        assert_eq!(t.len(), 6);
        // text -> binary -> trace equals text -> trace
        let via_binary = MemTrace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(via_binary, t);
        // and the rendered text re-parses to the same trace
        assert_eq!(MemTrace::from_text(&t.to_text()).unwrap(), t);
    }

    #[test]
    fn text_errors_name_the_line() {
        let e = MemTrace::from_text("cores 2\n0 teleport 0x1000\n").unwrap_err();
        assert_eq!(
            e,
            TraceError::Text {
                line: 2,
                msg: "unknown op kind `teleport`".into()
            }
        );
        assert!(MemTrace::from_text("0 load 0x0\n").is_err()); // no header
        assert!(MemTrace::from_text("cores 2\n5 load 0x0\n").is_err()); // core range
        assert!(MemTrace::from_text("cores 0\n").is_err());
        assert!(MemTrace::from_text("cores 2\n0 store 0x10\n").is_err()); // missing value
        assert!(MemTrace::from_text("").is_err());
    }

    #[test]
    fn gaps_parse_and_render() {
        let t = MemTrace::from_text("cores 1\n0 +41 fence\n").unwrap();
        assert_eq!(t.records()[0].gap, 41);
        assert!(t.to_text().contains("0 +41 fence"));
    }
}
