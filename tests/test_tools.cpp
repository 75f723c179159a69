// Section V tool flow: RTL generation + self-check, VLR placement,
// liberty/LEF emission, area/floorplan model.
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "tools/noc_generator.hpp"

namespace smartnoc::tools {
namespace {

TEST(VerilogGen, BundleGeneratesAndSelfChecks) {
  const auto rtl = generate_rtl(NocConfig::paper_4x4());
  EXPECT_EQ(rtl.files.size(), 9u);
  EXPECT_GT(rtl.total_lines, 300);
  EXPECT_EQ(verilog_selfcheck(rtl.concatenated(), true), "");
}

TEST(VerilogGen, EveryExpectedModulePresent) {
  const auto rtl = generate_rtl(NocConfig::paper_4x4());
  const std::string all = rtl.concatenated();
  for (const char* mod : {"module vlr_tx", "module vlr_rx", "module bypass_mux",
                          "module smart_xbar", "module vc_buffer", "module rr_arbiter",
                          "module config_reg", "module smart_router",
                          "module smart_mesh_top"}) {
    EXPECT_NE(all.find(mod), std::string::npos) << mod;
  }
}

TEST(VerilogGen, ParametersFollowConfig) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.width = 8;
  cfg.height = 8;
  cfg.header_bits = 40;
  cfg.flit_bits = 64;
  cfg.packet_bits = 512;
  const auto rtl = generate_rtl(cfg);
  const std::string& top = rtl.file("smart_mesh_top.v").content;
  EXPECT_NE(top.find("parameter WIDTH = 64"), std::string::npos);
  EXPECT_NE(top.find("parameter W     = 8"), std::string::npos);
}

TEST(VerilogGen, SelfCheckCatchesImbalance) {
  EXPECT_NE(verilog_selfcheck("module a (\n);\n"), "");            // no endmodule
  EXPECT_NE(verilog_selfcheck("module a ();\nbegin\nendmodule\n"), "");  // dangling begin
  EXPECT_EQ(verilog_selfcheck("module a ();\nendmodule\n"), "");
}

TEST(VerilogGen, SelfCheckCatchesUndefinedInstance) {
  const std::string text =
      "module top ();\n  widget u_w (\n  );\nendmodule\n";
  EXPECT_NE(verilog_selfcheck(text, true), "");
  EXPECT_EQ(verilog_selfcheck(text, false), "");
}

TEST(VlrPlacer, ThirtyTwoBitBlockMatchesFigure8Shape) {
  const auto b = place_vlr_block(CellOutline{}, 32, 8);
  EXPECT_EQ(b.rows, 4);
  EXPECT_EQ(b.cols, 8);
  EXPECT_EQ(b.placement.size(), 32u);
  EXPECT_DOUBLE_EQ(b.area_um2, b.width_um * b.height_um);
}

TEST(VlrPlacer, RowsAlternateOrientation) {
  const auto b = place_vlr_block(CellOutline{}, 16, 8);
  EXPECT_FALSE(b.placement[0].flipped);
  EXPECT_TRUE(b.placement[8].flipped);
}

TEST(VlrPlacer, NoOverlaps) {
  const auto b = place_vlr_block(CellOutline{}, 32, 8);
  for (std::size_t i = 0; i < b.placement.size(); ++i) {
    for (std::size_t j = i + 1; j < b.placement.size(); ++j) {
      const bool same = b.placement[i].x_um == b.placement[j].x_um &&
                        b.placement[i].y_um == b.placement[j].y_um;
      EXPECT_FALSE(same) << i << " vs " << j;
    }
  }
}

TEST(VlrPlacer, DefTextListsEveryBit) {
  const auto b = place_vlr_block(CellOutline{}, 8, 4);
  const std::string def = b.def_text("tx");
  for (int bit = 0; bit < 8; ++bit) {
    EXPECT_NE(def.find("tx_bit" + std::to_string(bit)), std::string::npos);
  }
}

TEST(Liberty, ContainsCellsAndArcs) {
  const auto lib = generate_liberty(NocConfig::paper_4x4(), circuit::SizingPreset::Relaxed2GHz);
  EXPECT_NE(lib.find("cell (vlr_tx_32b)"), std::string::npos);
  EXPECT_NE(lib.find("cell (vlr_rx_32b)"), std::string::npos);
  EXPECT_NE(lib.find("cell_rise"), std::string::npos);
  EXPECT_NE(lib.find("leakage_power"), std::string::npos);
  // Braces balanced.
  EXPECT_EQ(std::count(lib.begin(), lib.end(), '{'), std::count(lib.begin(), lib.end(), '}'));
}

TEST(Lef, OutlineMatchesPlacement) {
  const auto b = place_vlr_block(CellOutline{}, 32, 8);
  const auto lef = generate_lef(b, "vlr_tx_32b");
  EXPECT_NE(lef.find("MACRO vlr_tx_32b"), std::string::npos);
  EXPECT_NE(lef.find("PIN d31"), std::string::npos);
}

TEST(Area, RouterAreaFitsInTile) {
  // Fig. 9: the router plus link circuits occupy a small corner of each
  // 1 mm^2 tile, the rest is core.
  const auto a = estimate_router_area(NocConfig::paper_4x4());
  EXPECT_GT(a.total(), 5'000.0);     // a real router, not a stub
  EXPECT_LT(a.total(), 100'000.0);   // < 10% of a 1 mm^2 tile
  EXPECT_GT(a.buffers_um2, a.crossbar_um2) << "buffers dominate NoC area at Table II sizes";
}

TEST(Area, ScalesWithConfiguration) {
  NocConfig small = NocConfig::paper_4x4();
  NocConfig big = small;
  big.vcs_per_port = 4;
  big.credit_bits = 3;
  big.vc_depth_flits = 16;
  EXPECT_GT(estimate_router_area(big).total(), estimate_router_area(small).total());
}

TEST(Floorplan, ReportMentionsEveryRouter) {
  const auto fp = floorplan_report(NocConfig::paper_4x4());
  for (int r = 0; r < 16; ++r) {
    EXPECT_NE(fp.find(std::string("R").append(std::to_string(r))), std::string::npos) << r;
  }
  EXPECT_NE(fp.find("NoC area fraction"), std::string::npos);
}

TEST(Generator, EndToEndProducesAllArtifacts) {
  const auto d = generate_noc(NocConfig::paper_4x4());
  EXPECT_EQ(d.rtl.files.size(), 9u);
  EXPECT_EQ(d.register_map.size(), 16u);
  EXPECT_FALSE(d.liberty.empty());
  EXPECT_FALSE(d.lef_tx.empty());
  EXPECT_FALSE(d.floorplan.empty());
  EXPECT_EQ(d.tx_block.bits, 32);
}

}  // namespace
}  // namespace smartnoc::tools
