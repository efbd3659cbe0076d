#include <gtest/gtest.h>

#include <cmath>

#include "materials/mlc_levels.hpp"
#include "materials/thermal_model.hpp"
#include "photonics/crosstalk.hpp"
#include "photonics/gst_cell.hpp"
#include "photonics/gst_switch.hpp"
#include "photonics/laser.hpp"
#include "photonics/losses.hpp"
#include "photonics/microring.hpp"
#include "photonics/waveguide.hpp"

namespace cp = comet::photonics;
namespace cm = comet::materials;

// ----------------------------------------------------------- Table I

TEST(Losses, TableIValues) {
  const auto p = cp::LossParameters::paper();
  EXPECT_DOUBLE_EQ(p.coupling_loss_db, 1.0);
  EXPECT_DOUBLE_EQ(p.mr_drop_loss_db, 0.5);
  EXPECT_DOUBLE_EQ(p.mr_through_loss_db, 0.02);
  EXPECT_DOUBLE_EQ(p.eo_mr_drop_loss_db, 1.6);
  EXPECT_DOUBLE_EQ(p.eo_mr_through_loss_db, 0.33);
  EXPECT_DOUBLE_EQ(p.propagation_loss_db_per_cm, 0.1);
  EXPECT_DOUBLE_EQ(p.bending_loss_db_per_90deg, 0.01);
  EXPECT_DOUBLE_EQ(p.soa_gain_db, 20.0);
  EXPECT_DOUBLE_EQ(p.laser_wall_plug_efficiency, 0.2);
  EXPECT_DOUBLE_EQ(p.eo_tuning_power_uw_per_nm, 4.0);
  EXPECT_DOUBLE_EQ(p.max_power_at_cell_mw, 1.0);
  EXPECT_DOUBLE_EQ(p.intra_subarray_soa_power_mw, 1.4);
}

TEST(LossBudget, Accumulates) {
  cp::LossBudget budget;
  budget.add("coupler", 1.0);
  budget.add("mr through", 0.33, 45.0);
  budget.add("soa gain", -15.2);
  EXPECT_NEAR(budget.total_db(), 1.0 + 14.85 - 15.2, 1e-9);
  ASSERT_EQ(budget.items().size(), 3u);
  EXPECT_NEAR(budget.items()[1].total_db(), 14.85, 1e-9);
}

// ----------------------------------------------------------- microring

class MicroringTest : public ::testing::Test {
 protected:
  cp::LossParameters losses_ = cp::LossParameters::paper();
  cp::Microring eo_{cp::Microring::comet_access_design(1550.0), losses_};
  cp::Microring thermal_{
      cp::Microring::Design{.radius_um = 6.0,
                            .q_factor = 8000.0,
                            .resonance_nm = 1550.0,
                            .tuning_range_nm = 1.0,
                            .mechanism = cp::TuningMechanism::kThermal},
      losses_};
};

TEST_F(MicroringTest, EoTuningIsNanoseconds) {
  EXPECT_DOUBLE_EQ(eo_.tuning_latency_ns(), 2.0);  // paper: 2 ns [36]
}

TEST_F(MicroringTest, ThermalTuningIsMicroseconds) {
  EXPECT_GE(thermal_.tuning_latency_ns(), 1000.0);
}

TEST_F(MicroringTest, EoLossesExceedPassive) {
  EXPECT_GT(eo_.drop_loss_db(), thermal_.drop_loss_db());
  EXPECT_GT(eo_.through_loss_db(), thermal_.through_loss_db());
  EXPECT_DOUBLE_EQ(eo_.through_loss_db(), 0.33);
  EXPECT_DOUBLE_EQ(eo_.drop_loss_db(), 1.6);
}

TEST_F(MicroringTest, EoTuningPowerMatchesTableI) {
  EXPECT_NEAR(eo_.tuning_power_w(1.0), 4e-6, 1e-12);  // 4 uW/nm
  EXPECT_NEAR(eo_.tuning_power_w(-0.5), 2e-6, 1e-12);
}

TEST_F(MicroringTest, DropTransferPeaksOnResonance) {
  EXPECT_DOUBLE_EQ(eo_.drop_transfer(1550.0, 1550.0), 1.0);
  const double half = eo_.drop_transfer(1550.0 + eo_.linewidth_nm() / 2,
                                        1550.0);
  EXPECT_NEAR(half, 0.5, 1e-9);
  EXPECT_LT(eo_.drop_transfer(1551.0, 1550.0), 0.05);
}

TEST_F(MicroringTest, FsrReasonableForSixMicronRing) {
  // FSR = lambda^2 / (n_g * 2 pi R) ~ 15 nm for R = 6 um, n_g = 4.2.
  EXPECT_NEAR(eo_.fsr_nm(), 15.2, 1.0);
}

TEST_F(MicroringTest, RejectsBadDesign) {
  auto bad = cp::Microring::comet_access_design(1550.0);
  bad.q_factor = -1.0;
  EXPECT_THROW(cp::Microring(bad, losses_), std::invalid_argument);
}

// ----------------------------------------------------------- laser

TEST(Laser, PowerScalesWithLoss) {
  const cp::Laser laser(0.2, 256);
  // 1 mW needed after 10 dB of loss -> 10 mW optical per wavelength.
  EXPECT_NEAR(laser.optical_power_per_wavelength_mw(1.0, 10.0), 10.0, 1e-9);
  // 256 wavelengths at 20 % wall plug -> 12.8 W electrical.
  EXPECT_NEAR(laser.electrical_power_w(1.0, 10.0), 12.8, 1e-9);
}

TEST(Laser, ZeroLossPassThrough) {
  const cp::Laser laser(0.5, 1);
  EXPECT_NEAR(laser.electrical_power_w(1.0, 0.0), 0.002, 1e-12);
}

TEST(Laser, RejectsBadParameters) {
  EXPECT_THROW(cp::Laser(0.0, 4), std::invalid_argument);
  EXPECT_THROW(cp::Laser(1.5, 4), std::invalid_argument);
  EXPECT_THROW(cp::Laser(0.2, 0), std::invalid_argument);
}

// ----------------------------------------------------------- waveguide

TEST(WaveguidePath, TableIArithmetic) {
  const cp::WaveguidePath path(cp::LossParameters::paper());
  // 2 cm + 4 bends: 0.2 + 0.04 dB.
  EXPECT_NEAR(path.path_loss_db(2.0, 4), 0.24, 1e-12);
}

TEST(MdmLink, FundamentalModeIsLossless) {
  const cp::MdmLink link(4);
  EXPECT_DOUBLE_EQ(link.mode_excess_loss_db(0), 0.0);
}

TEST(MdmLink, HigherModesLoseMore) {
  const cp::MdmLink link(4);
  for (int m = 1; m < 4; ++m) {
    EXPECT_GT(link.mode_excess_loss_db(m), link.mode_excess_loss_db(m - 1));
  }
}

TEST(MdmLink, Degree4IsCheapDegree16IsNot) {
  // Section III.C: degree 4 is achievable "without notable losses";
  // COSMOS would need degree 16, which is "extremely challenging".
  const cp::MdmLink comet(4);
  const cp::MdmLink cosmos(16);
  EXPECT_LT(comet.worst_mode_excess_loss_db(), 0.2);
  EXPECT_GT(cosmos.worst_mode_excess_loss_db(),
            4.0 * comet.worst_mode_excess_loss_db());
  EXPECT_GT(cosmos.required_width_nm(), 2.0 * comet.required_width_nm());
}

TEST(MdmLink, RejectsBadMode) {
  const cp::MdmLink link(4);
  EXPECT_THROW(link.mode_excess_loss_db(4), std::invalid_argument);
  EXPECT_THROW(link.mode_excess_loss_db(-1), std::invalid_argument);
}

// ----------------------------------------------------------- GST cell

class GstCellTest : public ::testing::Test {
 protected:
  const cm::PcmMaterial& gst_ = cm::PcmMaterial::get(cm::Pcm::kGst);
  cp::GstCell cell_{gst_, cp::GstCellGeometry::paper()};
};

TEST_F(GstCellTest, PaperGeometry) {
  EXPECT_DOUBLE_EQ(cell_.geometry().width_nm, 480.0);
  EXPECT_DOUBLE_EQ(cell_.geometry().thickness_nm, 20.0);
  EXPECT_DOUBLE_EQ(cell_.geometry().length_um, 2.0);
}

TEST_F(GstCellTest, AmorphousInsertionLossNearPaper) {
  // Section II.B: 0.24 dB for the amorphous state.
  EXPECT_NEAR(cell_.amorphous_insertion_loss_db(), 0.24, 0.1);
}

TEST_F(GstCellTest, CrystallineExtinctionNearPaper) {
  // Section II.B: up to 21.8 dB for the crystalline state.
  EXPECT_NEAR(cell_.crystalline_extinction_db(), 21.8, 2.5);
}

TEST_F(GstCellTest, ContrastsNear95Percent) {
  // Section III.B / conclusions: ~95-96 % contrast at the chosen geometry.
  EXPECT_NEAR(cell_.transmission_contrast(), 0.95, 0.03);
  EXPECT_NEAR(cell_.absorption_contrast(), 0.95, 0.03);
}

TEST_F(GstCellTest, TransmissionStrictlyDecreasingInFraction) {
  double prev = cell_.transmission(0.0);
  for (double f = 0.05; f <= 1.0; f += 0.05) {
    const double t = cell_.transmission(f);
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST_F(GstCellTest, ThicknessDominatesContrastThenSaturates) {
  // Fig. 4: contrast climbs steeply with film thickness, then saturates
  // near 20 nm (the paper's starred design point); past the knee the
  // curve is flat to within ~1 % because the amorphous state starts
  // losing light too.
  const auto contrast_at = [&](double t_nm) {
    return cp::GstCell(gst_, {.width_nm = 480.0, .thickness_nm = t_nm,
                              .length_um = 2.0})
        .transmission_contrast();
  };
  EXPECT_LT(contrast_at(5.0), contrast_at(10.0));
  EXPECT_LT(contrast_at(10.0), contrast_at(15.0));
  const double knee = contrast_at(20.0);
  EXPECT_GT(knee, 0.9);
  EXPECT_NEAR(contrast_at(25.0), knee, 0.01);
  EXPECT_NEAR(contrast_at(30.0), knee, 0.01);
}

TEST_F(GstCellTest, WidthEffectIsNegligible) {
  // Fig. 4: "the impact of PCM waveguide width ... is negligible".
  cp::GstCell narrow(gst_, {.width_nm = 400.0, .thickness_nm = 20.0,
                            .length_um = 2.0});
  cp::GstCell wide(gst_, {.width_nm = 600.0, .thickness_nm = 20.0,
                          .length_um = 2.0});
  EXPECT_NEAR(narrow.transmission_contrast(), wide.transmission_contrast(),
              0.02);
}

TEST_F(GstCellTest, CBandContrastVariationSmall) {
  // Section III.B: max wavelength-dependent transmission contrast
  // variation ~1.4 % across the C-band.
  const double lo = cell_.transmission_contrast(1530.0);
  const double hi = cell_.transmission_contrast(1565.0);
  EXPECT_LT(std::abs(hi - lo) / lo, 0.03);
}

TEST_F(GstCellTest, SixteenLevelSpacingNearSixPercent) {
  // Section III.B: 16 levels with ~6 % spacing.
  cm::PcmThermalModel model(cm::GstThermalCalibration::calibrated());
  const auto table =
      cm::MlcLevelTable::build(4, cm::ProgrammingMode::kAmorphousReset,
                               model, cell_.transmission_curve());
  EXPECT_NEAR(table.level_spacing(), 0.06, 0.01);
}

TEST_F(GstCellTest, RejectsBadGeometry) {
  EXPECT_THROW(cp::GstCell(gst_, {.width_nm = -1.0, .thickness_nm = 20.0,
                                  .length_um = 2.0}),
               std::invalid_argument);
}

// ----------------------------------------------------------- GST switch

TEST(GstSwitch, StartsBlockingAndToggles) {
  cp::GstSwitch sw(cp::LossParameters::paper());
  EXPECT_EQ(sw.state(), cp::GstSwitch::State::kBlocking);
  EXPECT_DOUBLE_EQ(sw.set_state(cp::GstSwitch::State::kCoupling), 100.0);
  EXPECT_EQ(sw.state(), cp::GstSwitch::State::kCoupling);
  EXPECT_DOUBLE_EQ(sw.set_state(cp::GstSwitch::State::kCoupling), 0.0);
}

TEST(GstSwitch, LossesMatchPaper) {
  cp::GstSwitch sw(cp::LossParameters::paper());
  EXPECT_DOUBLE_EQ(sw.coupling_loss_db(), 0.2);   // Section III.C
  EXPECT_GT(sw.blocking_isolation_db(), 20.0);
  EXPECT_DOUBLE_EQ(cp::GstSwitch::transition_latency_ns(), 100.0);
}

// ----------------------------------------------------------- crosstalk

TEST(Crosstalk, PaperCalibration) {
  const cp::CrosstalkModel model(cp::CrosstalkModel::paper());
  // Section II.B: 750 pJ write leaks ~12.6 pJ (-17.75 dB) into a
  // neighbour and shifts its crystalline fraction by ~8 %.
  EXPECT_NEAR(model.coupled_energy_pj(750.0), 12.6, 0.3);
  EXPECT_NEAR(model.fraction_shift(750.0), 0.08, 0.005);
}

TEST(Crosstalk, SingleWriteCorruptsFourBitCell) {
  const cp::CrosstalkModel model(cp::CrosstalkModel::paper());
  // 4-bit cell has 1/16 fraction spacing; one adjacent 750 pJ write
  // (8 % shift) exceeds half a level (3.1 %): corruption is immediate.
  EXPECT_EQ(model.writes_to_corruption(750.0, 1.0 / 16.0), 1);
}

TEST(Crosstalk, LowerDensityToleratesMoreWrites) {
  const cp::CrosstalkModel model(cp::CrosstalkModel::paper());
  const int b4 = model.writes_to_corruption(750.0, 1.0 / 16.0);
  const int b2 = model.writes_to_corruption(750.0, 1.0 / 4.0);
  const int b1 = model.writes_to_corruption(750.0, 1.0);
  EXPECT_LE(b4, b2);
  EXPECT_LT(b2, b1);
}

TEST(Crosstalk, RejectsBadParams) {
  EXPECT_THROW(cp::CrosstalkModel({.coupling_db = 3.0,
                                   .fraction_shift_per_pj = 0.01}),
               std::invalid_argument);
}
