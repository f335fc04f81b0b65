//! The compiled engine against the interpreter on the real workload: a
//! PDP-8 program running on the ISP behavioral description. Every
//! architectural register, all 4K of core, the state name, the cycle
//! count and the run report must match byte for byte. Then against the
//! ISA-level emulator, which shares no code with either simulator.

use silc_exec::CompiledSim;
use silc_pdp8::{assemble, isp_machine, load_program_into_isl, Pdp8, Program};
use silc_rtl::Simulator;

/// The ISP description compiled, with `program` in core and `pc` at its
/// start — what [`load_program_into_isl`] does for the interpreter.
fn compiled_pdp8(program: &Program) -> CompiledSim {
    let mut comp = CompiledSim::from_machine(&isp_machine().expect("parses"));
    let mut image = vec![0u64; 4096];
    for &(addr, word) in &program.words {
        image[addr as usize] = u64::from(word);
    }
    comp.load_mem("m", &image).unwrap();
    comp.set_reg("pc", u64::from(program.start)).unwrap();
    comp
}

#[test]
fn pdp8_multiply_is_byte_identical_across_engines() {
    let program = assemble(
        "*200
                 cla cll
         loop,   tad product
                 tad six
                 dca product
                 isz count
                 jmp loop
                 cla
                 tad product
                 hlt
         six,    0006
         count,  7771          / -7
         product,0000",
    )
    .expect("assembles");

    let machine = isp_machine().expect("parses");
    let mut interp = Simulator::new(&machine);
    load_program_into_isl(&mut interp, &program);

    let mut comp = compiled_pdp8(&program);

    let ra = interp.run(10_000).unwrap();
    let rb = comp.run(10_000).unwrap();
    assert_eq!(ra, rb);
    assert!(rb.halted, "program must reach HLT");

    for reg in ["pc", "ac", "l", "ir", "ma", "page"] {
        assert_eq!(interp.reg(reg), comp.reg(reg), "register {reg}");
    }
    assert_eq!(comp.reg("ac"), Some(42), "6 x 7");
    assert_eq!(interp.state_name(), comp.state_name());
    assert_eq!(interp.cycle(), comp.cycle());
    for addr in 0..4096u64 {
        assert_eq!(
            interp.mem_word("m", addr),
            comp.mem_word("m", addr),
            "core word {addr:o}"
        );
    }
}

#[test]
fn pdp8_switch_register_pokes_agree() {
    // OSR reads the console switches: poke them identically mid-run.
    let program = assemble("*200\ncla\nosr\nhlt\n").expect("assembles");
    let machine = isp_machine().expect("parses");

    let mut interp = Simulator::new(&machine);
    load_program_into_isl(&mut interp, &program);
    interp.set_input("sr", 0o1234).unwrap();

    let mut comp = compiled_pdp8(&program);
    comp.set_input("sr", 0o1234).unwrap();

    assert_eq!(interp.run(100).unwrap(), comp.run(100).unwrap());
    assert_eq!(comp.reg("ac"), Some(0o1234));
    assert_eq!(interp.reg("ac"), comp.reg("ac"));
}

/// Runs `src` on the ISA emulator and on the compiled ISP description
/// (switch register at `sr` in both) and compares AC, L, PC and all 4K
/// of core.
fn agrees_with_the_emulator(src: &str, sr: u16) {
    let program = assemble(src).expect("assembles");
    let mut isa = Pdp8::new();
    isa.sr = sr;
    isa.load(&program);
    assert!(isa.run(500), "the emulator must reach HLT:\n{src}");

    let mut comp = compiled_pdp8(&program);
    comp.set_input("sr", u64::from(sr)).unwrap();
    // Each instruction takes at most 6 ISL states.
    let report = comp.run(500 * 8).unwrap();
    assert!(report.halted, "the description must reach HLT:\n{src}");

    assert_eq!(comp.reg("ac"), Some(u64::from(isa.ac)), "ac:\n{src}");
    assert_eq!(comp.reg("l"), Some(u64::from(isa.link)), "link:\n{src}");
    assert_eq!(comp.reg("pc"), Some(u64::from(isa.pc)), "pc:\n{src}");
    for addr in 0..4096usize {
        assert_eq!(
            comp.mem_word("m", addr as u64),
            Some(u64::from(isa.mem[addr])),
            "core word {addr:o}:\n{src}"
        );
    }
}

/// The programs of `silc_pdp8::isp`'s own cross-checks — direct and
/// indirect operands, ISZ, JMS, both operate groups, OSR — on the
/// compiled engine against the ISA emulator.
#[test]
fn compiled_pdp8_agrees_with_the_isa_emulator() {
    let programs = [
        // Arithmetic through memory.
        "*200\n cla cll\n tad a\n tad b\n dca sum\n hlt\n a, 0025\n b, 0031\n sum, 0000",
        // An ISZ-driven loop summing 1..5.
        "*200\n cla cll\n loop, tad count\n dca acc2\n tad acc2\n tad total\n dca total\n \
         isz count\n jmp loop\n hlt\n count, 7773\n acc2, 0000\n total, 0000",
        // Operate group 1: complement, rotates through the link, IAC.
        "*200\n cla cll\n tad v\n cma cml\n rtl\n rar\n iac\n hlt\n v, 2525",
        // JMS and the indirect return.
        "*200\n cla\n jms sub\n tad x\n hlt\n sub, 0000\n tad y\n jmp i sub\n x, 0003\n y, 0010",
        // Operate group 2: skip chains on AC and link.
        "*200\n cla cll\n sza\n hlt\n cma\n spa\n iac\n sna\n tad k\n hlt\n k, 0007",
        // ISZ to zero, then an indirect operand.
        "*200\n start, isz n\n jmp start\n tad i ptr\n hlt\n n, 7775\n ptr, 0300\n *300\n 0042",
    ];
    for src in programs {
        agrees_with_the_emulator(src, 0);
    }
    // OSR ORs the console switches in, poked identically on both sides.
    agrees_with_the_emulator("*200\n cla\n osr\n hlt\n", 0o1234);
    agrees_with_the_emulator("*200\n cla cll\n tad v\n osr\n hlt\n v, 4001", 0o0770);
}
