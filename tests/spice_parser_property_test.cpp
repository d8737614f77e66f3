// Robustness properties of the SPICE parser: arbitrary hostile input must
// either parse or raise ParseError — never crash, hang, or corrupt state —
// and valid decks must round-trip bit-stably through the writer.
#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "spice/generator.h"
#include "spice/parser.h"
#include "spice/writer.h"

namespace viaduct {
namespace {

/// Random printable garbage with SPICE-ish tokens mixed in.
std::string randomDeck(Rng& rng) {
  static const char* fragments[] = {
      "R",    "V",     "I",    "C",   "*",    ".op",   ".end", ".title",
      "n1_",  "0",     "gnd",  "+",   "1.5",  "2k",    "xyz",  "1e",
      "-",    "$",     "_",    " ",   "\t",   "Rvia_", "meg",  "99",
  };
  std::string deck;
  const int lines = 1 + static_cast<int>(rng.uniformInt(20));
  for (int l = 0; l < lines; ++l) {
    const int tokens = static_cast<int>(rng.uniformInt(8));
    for (int t = 0; t < tokens; ++t) {
      deck += fragments[rng.uniformInt(std::size(fragments))];
      if (rng.uniform() < 0.7) deck += ' ';
    }
    deck += '\n';
  }
  return deck;
}

TEST(ParserProperty, HostileInputNeverCrashes) {
  Rng rng(2024);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    try {
      const Netlist n = parseSpiceString(randomDeck(rng));
      (void)n;
      ++parsed;
    } catch (const ParseError&) {
      ++rejected;
    }
  }
  // Both outcomes occur — the corpus is neither trivially valid nor
  // trivially invalid.
  EXPECT_GT(parsed, 50);
  EXPECT_GT(rejected, 50);
}

TEST(ParserProperty, GeneratedGridsRoundTripStably) {
  // write(parse(write(g))) == write(g) for a corpus of generated grids.
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    GridGeneratorConfig cfg;
    cfg.stripesX = 5;
    cfg.stripesY = 4;
    cfg.seed = seed;
    const Netlist original = generatePowerGrid(cfg);
    const std::string once = writeSpiceString(original);
    const std::string twice = writeSpiceString(parseSpiceString(once));
    EXPECT_EQ(once, twice) << "seed " << seed;
  }
}

TEST(ParserProperty, ValuesSurviveRoundTripExactly) {
  Rng rng(77);
  Netlist n;
  const Index a = n.internNode("a");
  const Index b = n.internNode("b");
  for (int i = 0; i < 200; ++i) {
    n.addResistor(std::string("R").append(std::to_string(i)), a, b,
                  rng.lognormal(0.0, 3.0));  // spans many decades
  }
  const Netlist re = parseSpiceString(writeSpiceString(n));
  ASSERT_EQ(re.resistors().size(), n.resistors().size());
  for (std::size_t i = 0; i < n.resistors().size(); ++i) {
    // 12 significant digits are preserved by the writer.
    EXPECT_NEAR(re.resistors()[i].ohms, n.resistors()[i].ohms,
                1e-11 * n.resistors()[i].ohms);
  }
}

TEST(ParserProperty, DeepContinuationChains) {
  std::string deck = "R1";
  for (const char* tok : {"a", "b", "1.0"}) {
    deck += "\n+ ";
    deck += tok;
  }
  deck += "\n";
  const Netlist n = parseSpiceString(deck);
  ASSERT_EQ(n.resistors().size(), 1u);
  EXPECT_DOUBLE_EQ(n.resistors()[0].ohms, 1.0);
}

TEST(ParserProperty, HugeNodeNamesAreFine) {
  const std::string longName(2000, 'x');
  const Netlist n =
      parseSpiceString("R1 " + longName + " 0 1.0\n");
  EXPECT_TRUE(n.findNode(longName).has_value());
}

}  // namespace
}  // namespace viaduct
