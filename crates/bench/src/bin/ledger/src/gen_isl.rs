//! Seeded ISL machines: PDP-8 program images, register mills with a
//! native reference, and small controllers for synthesis.

use crate::rng::Rng;
use std::fmt::Write as _;

/// Cycle budget of every simulation op.
pub const SIM_CYCLES: u64 = 1_000_000;

fn octal(v: i64) -> String {
    format!("{:o}", v & 0o7777)
}

/// One of four PDP-8 programs in the repo assembler's PAL dialect, each
/// built around a different part of the instruction set. `reps` is the
/// outer repeat count (1..=4095); everything else comes from `rng`.
pub fn pdp8_program(kind: usize, rng: &mut Rng, reps: i64) -> String {
    let outer = octal(-reps);
    match kind {
        // Nested ISZ counters: direct addressing, skips, jumps.
        0 => {
            let inner = octal(-rng.range(1_000, 4_000));
            let k = octal(rng.range(1, 4096));
            format!(
                "*200\nstart, cla cll\nloop, isz inner\n jmp loop\n isz outer\n jmp loop\n \
                 tad k\n hlt\ninner, {inner}\nouter, {outer}\nk, {k}\n"
            )
        }
        // Checksum of a table read through a pointer that ISZ advances:
        // indirect addressing, carries into the link. (The assembler
        // takes numbers, not labels, as data words: pointers are octal.)
        1 => {
            let len = rng.range(24, 48);
            let mut s = format!(
                "*200\nstart, cla\n tad tabp\n dca ptr\n tad nlen\n dca cnt\n\
                 sloop, tad i ptr\n tad sum\n dca sum\n isz ptr\n isz cnt\n jmp sloop\n \
                 isz outer\n jmp start\n cla\n tad sum\n hlt\n\
                 ptr, 0\ncnt, 0\nsum, 0\ntabp, 300\nnlen, {}\nouter, {outer}\n*300\n",
                octal(-len)
            );
            for _ in 0..len {
                let _ = writeln!(s, "{}", octal(rng.range(1, 4096)));
            }
            s
        }
        // Shift-and-add multiply: operate group 1 rotates through the
        // link, group 2 link skips.
        2 => {
            let (a, b) = (rng.range(3, 4096), rng.range(3, 4096));
            format!(
                "*200\nstart, cla cll\n dca prod\n tad mcand\n dca a\n tad mplier\n dca b\n \
                 tad m12\n dca bits\n\
                 mloop, cla cll\n tad b\n rar\n dca b\n szl\n jmp addit\n\
                 back, cla cll\n tad a\n ral\n dca a\n isz bits\n jmp mloop\n \
                 isz outer\n jmp start\n cla cll\n tad prod\n hlt\n\
                 addit, cla cll\n tad prod\n tad a\n dca prod\n jmp back\n\
                 a, 0\nb, 0\nprod, 0\nbits, 0\nm12, 7764\nmcand, {}\nmplier, {}\nouter, {outer}\n",
                octal(a),
                octal(b)
            )
        }
        // A loop whose body hops across four pages through page-zero
        // pointers: current-page and page-zero operands, indirect jumps.
        // The inner count is reloaded so that `reps` stays in 12 bits.
        _ => {
            let k: Vec<String> = (0..3).map(|_| octal(rng.range(1, 4096))).collect();
            format!(
                "*200\nstart, cla cll\nagain, tad acc\n tad k1\n dca acc\n jmp i p1\nk1, {}\n\
                 *600\nhop1, tad acc\n tad k2\n dca acc\n jmp i p2\nk2, {}\n\
                 *1400\nhop2, tad acc\n tad k3\n dca acc\n jmp i p3\nk3, {}\n\
                 *3000\nhop3, isz cnt\n jmp i back\n tad reload\n dca cnt\n isz outer\n jmp i back\n \
                 cla cll\n tad acc\n hlt\n\
                 *20\np1, 600\np2, 1400\np3, 3000\nback, 201\ncnt, 7400\nreload, 7400\n\
                 outer, {outer}\nacc, 0\n",
                k[0], k[1], k[2]
            )
        }
    }
}

/// ISL cycles the PDP-8 description spends on the instruction word `w`:
/// fetch and decode, then defer and execute, or the operate sequence.
/// Counted from the state graph of the description by hand, so the
/// expected cycle count does not come from a simulator under test.
pub fn pdp8_instruction_cycles(w: u16) -> u64 {
    match w >> 9 {
        0..=5 => 3 + u64::from(w & 0o400 != 0),
        6 => 2,
        _ if w & 0o400 == 0 => 6,
        _ => 3,
    }
}

/// The PDP-8 description with a reset state in front that stores the
/// program image and the start address, which is how a program reaches
/// `silc sim` (the CLI takes ISL text only). The boot state costs one
/// cycle.
pub fn pdp8_boot_source(isp: &str, words: &[(u16, u16)], start: u16) -> String {
    let mut boot = String::from("state boot {\n");
    for &(addr, word) in words {
        // `m[128]` would parse as a bit select; `m[128 + 0]` is a word.
        let _ = writeln!(boot, "        m[{addr} + 0] := {word};");
    }
    let _ = write!(
        boot,
        "        pc := {start};\n        goto fetch;\n    }}\n\n    state fetch {{"
    );
    isp.replacen("state fetch {", &boot, 1)
}

/// A free-running register machine and what its registers hold after
/// [`SIM_CYCLES`] cycles, computed here with native integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mill {
    pub source: String,
    pub name: String,
    /// Final `(register, value)` pairs, in declaration order.
    pub regs: Vec<(String, u64)>,
    pub state: String,
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

/// Four mills, each leaning on another part of the expression language.
/// Every right-hand side reads the values from before the cycle.
pub fn mill(kind: usize, rng: &mut Rng) -> Mill {
    let name = format!("mill{kind}");
    let seed_value = |rng: &mut Rng| rng.next_u64() >> 1 | 1;
    match kind {
        // Adder chain at a seeded width.
        0 => {
            let w = rng.range(40, 65) as u32;
            let k = rng.next_u64() & mask(w.min(62)) | 1;
            let (mut a, mut b, mut c) = (0u64, 0u64, 0u64);
            for _ in 0..SIM_CYCLES {
                (a, b, c) = (
                    a.wrapping_add(k) & mask(w),
                    b.wrapping_add(a) & mask(w),
                    c ^ b,
                );
            }
            Mill {
                source: format!(
                    "machine {name} {{ reg a[{w}]; reg b[{w}]; reg c[{w}]; \
                     state run {{ a := a + {k}; b := b + a; c := c ^ b; }} }}"
                ),
                name,
                regs: vec![("a".into(), a), ("b".into(), b), ("c".into(), c)],
                state: "run".into(),
            }
        }
        // Xorshift spread over three states with an accumulator.
        1 => {
            let x0 = seed_value(rng);
            let (mut x, mut y) = (x0, 0u64);
            for cycle in 0..SIM_CYCLES {
                match cycle % 3 {
                    0 => x ^= x << 13,
                    1 => x ^= x >> 7,
                    _ => (x, y) = (x ^ (x << 17), y.wrapping_add(x)),
                }
            }
            Mill {
                source: format!(
                    "machine {name} {{ reg x[64] init {x0}; reg y[64]; \
                     state s0 {{ x := x ^ (x << 13); goto s1; }} \
                     state s1 {{ x := x ^ (x >> 7); goto s2; }} \
                     state s2 {{ x := x ^ (x << 17); y := y + x; goto s0; }} }}"
                ),
                name,
                regs: vec![("x".into(), x), ("y".into(), y)],
                state: format!("s{}", SIM_CYCLES % 3),
            }
        }
        // A 64-bit Fibonacci LFSR held in two registers: slices and
        // concatenation.
        2 => {
            let tap = rng.range(8, 40) as u32;
            let (mut h, mut lo) = (seed_value(rng) & mask(48), seed_value(rng) & mask(16));
            let (h0, lo0) = (h, lo);
            for _ in 0..SIM_CYCLES {
                let feedback = (h >> 47 ^ h >> tap) & 1;
                (h, lo) = (
                    (h << 1 | lo >> 15) & mask(48),
                    (lo << 1 | feedback) & mask(16),
                );
            }
            Mill {
                source: format!(
                    "machine {name} {{ reg h[48] init {h0}; reg lo[16] init {lo0}; \
                     state run {{ h := {{h[46:0], lo[15]}}; lo := {{lo[14:0], h[47] ^ h[{tap}]}}; }} }}"
                ),
                name,
                regs: vec![("h".into(), h), ("lo".into(), lo)],
                state: "run".into(),
            }
        }
        // A Galois LFSR that counts its taken branches: conditionals.
        _ => {
            let poly = seed_value(rng) | 1 << 63;
            let a0 = seed_value(rng);
            let (mut a, mut n) = (a0, 0u64);
            for _ in 0..SIM_CYCLES {
                if a & 1 == 1 {
                    (a, n) = (a >> 1 ^ poly, n + 1);
                } else {
                    a >>= 1;
                }
            }
            Mill {
                source: format!(
                    "machine {name} {{ reg a[64] init {a0}; reg n[32]; \
                     state run {{ if a[0] == 1 {{ a := (a >> 1) ^ {poly}; n := n + 1; }} \
                     else {{ a := a >> 1; }} }} }}"
                ),
                name,
                regs: vec![("a".into(), a), ("n".into(), n)],
                state: "run".into(),
            }
        }
    }
}

/// A controller of `states` states (8..=16) over four registers and two
/// input ports. Conditions come from a pool of five, so the control
/// store stays at nine inputs or fewer and exact verification stays in
/// milliseconds.
pub fn controller(seed: u64, index: usize) -> String {
    let mut rng = Rng::new(seed, &format!("controller_{index}"));
    let states = rng.range(8, 17);
    let widths: Vec<i64> = (0..4).map(|_| rng.range(4, 9)).collect();
    let conditions = [
        "r0 == 0".to_string(),
        "r1[0] == 1".to_string(),
        "go == 1".to_string(),
        format!("r2 <= {}", rng.range(1, 8)),
        "din[3] == 1".to_string(),
    ];
    let mut s = format!("machine ctl{index} {{\n");
    for (r, w) in widths.iter().enumerate() {
        let _ = writeln!(s, "  reg r{r}[{w}];");
    }
    s.push_str("  port input go[1];\n  port input din[4];\n  port output dout[4];\n");
    let transfer = |rng: &mut Rng| {
        let r = rng.below(4);
        match rng.below(5) {
            0 => format!("r{r} := r{r} + 1;"),
            1 => format!("r{r} := r{r} ^ r{};", rng.below(4)),
            2 => format!("r{r} := {};", rng.range(0, 16)),
            3 => format!("r{r} := r{r} + din;"),
            _ => format!("dout := r{r}[3:0];"),
        }
    };
    for st in 0..states {
        let _ = writeln!(s, "  state s{st} {{");
        let next = |rng: &mut Rng| format!("goto s{};", rng.range(0, states));
        if rng.chance(75) {
            let c = &conditions[rng.below(conditions.len())];
            let _ = writeln!(
                s,
                "    if {c} {{ {} {} }}",
                transfer(&mut rng),
                next(&mut rng)
            );
            if rng.chance(40) {
                let c2 = &conditions[rng.below(conditions.len())];
                let _ = writeln!(
                    s,
                    "    else if {c2} {{ {} {} }}",
                    transfer(&mut rng),
                    next(&mut rng)
                );
            }
            if st == states - 1 {
                s.push_str("    else { halt; }\n");
            } else {
                let _ = writeln!(s, "    else {{ {} }}", next(&mut rng));
            }
        } else {
            let _ = writeln!(
                s,
                "    {} {}\n    {}",
                transfer(&mut rng),
                transfer(&mut rng),
                next(&mut rng)
            );
        }
        s.push_str("  }\n");
    }
    s.push_str("}\n");
    s
}

/// Cycle budget of a hot machine's simulation in the serve mix.
pub const HOT_CYCLES: u64 = 50_000;

/// A hot machine of the serve mix: a two-register mill spelled by `id`,
/// with its registers after [`HOT_CYCLES`] cycles. One line, no quotes,
/// so it embeds in a JSON string as is.
pub fn hot_machine(id: u64) -> Mill {
    let (w, k, c) = (8 + id % 9, 1 + id / 9 % 13, id / 117);
    let (mut a, mut b) = (0u64, 0u64);
    for _ in 0..HOT_CYCLES {
        (a, b) = ((a + k) & mask(w as u32), (b + a + c) & mask(w as u32));
    }
    Mill {
        source: format!(
            "machine hot{id} {{ reg a[{w}]; reg b[{w}]; state run {{ a := a + {k}; b := b + a + {c}; }} }}"
        ),
        name: format!("hot{id}"),
        regs: vec![("a".into(), a), ("b".into(), b)],
        state: "run".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_replay_from_the_seed_and_differ_between_seeds() {
        for kind in 0..4 {
            let text = |seed| pdp8_program(kind, &mut Rng::new(seed, "p"), 9);
            assert_eq!(text(1), text(1));
            assert_ne!(text(1), text(2), "program {kind}");
            let m = |seed| mill(kind, &mut Rng::new(seed, "m"));
            assert_eq!(m(1), m(1));
            assert_ne!(m(1), m(2), "mill {kind}");
        }
        assert_eq!(controller(1, 0), controller(1, 0));
        assert_ne!(controller(1, 0), controller(2, 0));
        assert_ne!(hot_machine(1).source, hot_machine(118).source);
    }

    #[test]
    fn instruction_cycles_follow_the_state_graph() {
        assert_eq!(pdp8_instruction_cycles(0o1205), 3); // tad, direct
        assert_eq!(pdp8_instruction_cycles(0o1605), 4); // tad i
        assert_eq!(pdp8_instruction_cycles(0o6031), 2); // iot
        assert_eq!(pdp8_instruction_cycles(0o7300), 6); // cla cll
        assert_eq!(pdp8_instruction_cycles(0o7402), 3); // hlt
    }

    #[test]
    fn the_boot_state_goes_in_front_of_fetch() {
        let isp = "machine pdp8 {\n    state fetch {\n    }\n}";
        let text = pdp8_boot_source(isp, &[(0o200, 0o7402)], 0o200);
        assert!(text.find("state boot").unwrap() < text.find("state fetch").unwrap());
        assert!(text.contains("m[128 + 0] := 3842;"));
        assert!(text.contains("pc := 128;"));
    }
}
