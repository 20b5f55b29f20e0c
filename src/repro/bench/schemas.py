"""Synthetic multi-domain benchmark databases (the BIRD substitute).

Six databases across domains — sports holdings (the paper's running
example domain), retail, healthcare, education, logistics, energy — each
with seeded data, catalog descriptions carrying column synonyms and foreign
keys, and a domain glossary whose terms the workload questions use.

Descriptions follow a machine-parseable convention the schema-linking
lexicon understands:

* ``Also called: a, b.`` — surface synonyms of a column;
* ``Foreign key to TABLE.COLUMN.`` — join edges;
* a table description beginning ``Each row is a <entity>.`` — entity
  surfaces for counting and ranking questions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from ..engine.database import Database
from ..engine.table import Column
from ..knowledge.mining import GlossaryEntry, GuidelineEntry
from . import datagen

DEFAULT_SEED = 7


@dataclass
class DatabaseProfile:
    """A benchmark database plus the metadata the workload generator needs."""

    database: Database
    label_columns: dict = field(default_factory=dict)   # table -> entity label column
    date_columns: dict = field(default_factory=dict)    # table -> main date column
    glossary: list = field(default_factory=list)        # GlossaryEntry
    guidelines: list = field(default_factory=list)      # GuidelineEntry
    intent_names: dict = field(default_factory=dict)    # table -> intent name

    @property
    def name(self):
        return self.database.name


def _col(name, type_, description="", synonyms=(), fk=None):
    text = description
    if synonyms:
        text = f"{text} Also called: {', '.join(synonyms)}.".strip()
    if fk:
        text = f"{text} Foreign key to {fk}.".strip()
    return Column(name, type_, text)


# ---------------------------------------------------------------------------
# sports holdings (the paper's running-example domain)
# ---------------------------------------------------------------------------


def build_sports(seed=DEFAULT_SEED):
    rng = random.Random(seed * 11 + 1)
    db = Database(
        "sports_holdings",
        description="Holding company with ownership stakes in sports organisations.",
    )
    org_names = [
        f"{prefix} {animal}"
        for prefix, animal in zip(
            datagen.SPORT_CITY_PREFIXES, datagen.ANIMALS
        )
    ][:16]
    countries = {}
    leagues = ["National League", "Continental League", "Premier Circuit"]
    orgs_rows = []
    for position, name in enumerate(org_names):
        country = rng.choice(datagen.COUNTRIES_SKEWED[:9])
        countries[name] = country
        orgs_rows.append(
            (
                position + 1,
                name,
                country,
                rng.choice(leagues),
                "COC" if rng.random() < 0.6 else "EXT",
                rng.randint(1946, 2010),
                name.split(" ")[0],
                rng.randint(8000, 62000),
            )
        )
    db.create_table(
        "SPORTS_ORGS",
        [
            _col("ORG_ID", "INTEGER", "Unique organisation id."),
            _col("ORG_NAME", "TEXT", "Organisation name.",
                 synonyms=("organization", "organisation", "team", "club")),
            _col("COUNTRY", "TEXT", "Country the organisation plays in."),
            _col("LEAGUE", "TEXT", "League the organisation belongs to."),
            _col("OWNERSHIP_FLAG", "TEXT",
                 "COC when the holding company owns a controlling stake."),
            _col("FOUNDED_YEAR", "INTEGER", "Year the organisation was founded.",
                 synonyms=("founded",)),
            _col("CITY", "TEXT", "Home city."),
            _col("ARENA_CAPACITY", "INTEGER", "Seats in the home arena.",
                 synonyms=("arena capacity", "capacity", "seats")),
        ],
        rows=orgs_rows,
        description="Each row is a sports organisation.",
    )
    fin_rows = []
    view_rows = []
    fin_id = 0
    view_id = 0
    for name in org_names:
        base_revenue = rng.uniform(150, 900)
        base_views = rng.uniform(40, 400)
        ownership = next(
            row[4] for row in orgs_rows if row[1] == name
        )
        for year in (2022, 2023):
            for month in range(1, 13):
                drift = 1.0 + 0.22 * rng.uniform(-1, 1)
                monthly_views = int(
                    base_views * (1.0 + 0.3 * rng.uniform(-1, 1)) * 1000
                )
                fin_id += 1
                fin_rows.append(
                    (
                        fin_id,
                        name,
                        datagen.month_date(year, month),
                        round(base_revenue * drift, 2),
                        round(base_revenue * drift * rng.uniform(0.55, 0.9), 2),
                        monthly_views,
                        countries[name],
                        ownership,
                    )
                )
                view_id += 1
                view_rows.append(
                    (
                        view_id,
                        name,
                        datagen.month_date(year, month),
                        monthly_views,
                        countries[name],
                    )
                )
    db.create_table(
        "SPORTS_FINANCIALS",
        [
            _col("FIN_ID", "INTEGER", "Unique financial record id."),
            _col("ORG_NAME", "TEXT", "Organisation the record belongs to.",
                 fk="SPORTS_ORGS.ORG_NAME"),
            _col("FIN_MONTH", "DATE", "Month of the financial record.",
                 synonyms=("month", "period")),
            _col("REVENUE", "FLOAT", "Monthly revenue in thousands.",
                 synonyms=("revenue", "income", "earnings")),
            _col("EXPENSES", "FLOAT", "Monthly expenses in thousands.",
                 synonyms=("expenses", "costs", "spending")),
            _col("VIEWS", "INTEGER", "Television viewers that month.",
                 synonyms=("viewers", "viewership")),
            _col("COUNTRY", "TEXT", "Country of the organisation."),
            _col("OWNERSHIP_FLAG", "TEXT",
                 "COC when the holding company owns a controlling stake."),
        ],
        rows=fin_rows,
        description="Each row is a monthly financial record.",
    )
    sponsor_rows = []
    sponsor_names = [
        "Northbank Financial", "Apex Motors", "Cloudline Air",
        "Summit Outfitters", "Velocity Energy", "Harbor Foods",
        "Polar Breweries", "Quantum Telecom",
    ]
    for index in range(40):
        sponsor_rows.append(
            (
                index + 1,
                rng.choice(org_names),
                rng.choice(sponsor_names),
                datagen.skewed_amount(rng, 50, 2500),
                rng.randint(2015, 2023),
            )
        )
    db.create_table(
        "SPONSORSHIPS",
        [
            _col("SPON_ID", "INTEGER", "Unique sponsorship id."),
            _col("ORG_NAME", "TEXT", "Sponsored organisation.",
                 fk="SPORTS_ORGS.ORG_NAME"),
            _col("SPONSOR_NAME", "TEXT", "Sponsoring company.",
                 synonyms=("sponsor",)),
            _col("ANNUAL_VALUE", "FLOAT", "Annual deal value in thousands.",
                 synonyms=("deal value", "sponsorship value")),
            _col("START_YEAR", "INTEGER", "First year of the deal."),
        ],
        rows=sponsor_rows,
        description="Each row is a sponsorship deal.",
    )
    db.create_table(
        "SPORTS_VIEWERSHIP",
        [
            _col("VIEW_ID", "INTEGER", "Unique viewership record id."),
            _col("ORG_NAME", "TEXT", "Organisation the record belongs to.",
                 fk="SPORTS_ORGS.ORG_NAME"),
            _col("VIEW_MONTH", "DATE", "Month of the viewership record.",
                 synonyms=("month", "period")),
            _col("VIEWS", "INTEGER", "Television viewers that month.",
                 synonyms=("viewers", "viewership", "audience")),
            _col("COUNTRY", "TEXT", "Country of the organisation."),
        ],
        rows=view_rows,
        description="Each row is a monthly TV viewership record.",
    )
    glossary = [
        GlossaryEntry(
            term="RPV",
            definition=(
                "revenue per viewer: total revenue divided by total "
                "television viewers over the selected period"
            ),
            sql_pattern=(
                "CAST(SUM(REVENUE) AS FLOAT) / NULLIF(SUM(VIEWS), 0)"
            ),
            tables=("SPORTS_FINANCIALS",),
            intent_name="financial performance",
        ),
        GlossaryEntry(
            term="QoQFP",
            definition=(
                "quarter-over-quarter financial performance: the change in "
                "revenue per viewer versus the previous quarter, computed "
                "from the financials and viewership tables, with the "
                "company-standard -1 multiplier applied to the change"
            ),
            sql_pattern=(
                "RATIO_DELTA numerator=SPORTS_FINANCIALS.FIN_MONTH.REVENUE "
                "denominator=SPORTS_VIEWERSHIP.VIEW_MONTH.VIEWS "
                "entity=ORG_NAME negate=true"
            ),
            tables=("SPORTS_FINANCIALS", "SPORTS_VIEWERSHIP"),
            intent_name="financial performance",
        ),
        GlossaryEntry(
            term="operating margin",
            definition="revenue minus expenses, as a fraction of revenue",
            sql_pattern=(
                "CAST(SUM(REVENUE) - SUM(EXPENSES) AS FLOAT) / "
                "NULLIF(SUM(REVENUE), 0)"
            ),
            tables=("SPORTS_FINANCIALS",),
            intent_name="financial performance",
        ),
    ]
    guidelines = [
        GuidelineEntry(
            text=(
                "'our' organisations means organisations the holding "
                "company controls; filter OWNERSHIP_FLAG = 'COC'"
            ),
            sql_pattern="OWNERSHIP_FLAG = 'COC'",
            tables=("SPORTS_FINANCIALS", "SPORTS_ORGS"),
            intent_name="financial performance",
        ),
        GuidelineEntry(
            text=(
                "Apply a -1 multiplier when calculating the change in "
                "performance metrics, per company reporting convention"
            ),
            sql_pattern="-1 *",
            tables=("SPORTS_FINANCIALS",),
            intent_name="financial performance",
        ),
        GuidelineEntry(
            text=(
                "Use conditional aggregation (SUM of CASE WHEN quarter "
                "matches) when comparing revenue data across periods"
            ),
            sql_pattern="SUM(CASE WHEN TO_CHAR(FIN_MONTH, 'YYYY\"Q\"Q') = ",
            tables=("SPORTS_FINANCIALS",),
            intent_name="financial performance",
        ),
    ]
    return DatabaseProfile(
        database=db,
        label_columns={
            "SPORTS_ORGS": "ORG_NAME",
            "SPORTS_FINANCIALS": "ORG_NAME",
            "SPORTS_VIEWERSHIP": "ORG_NAME",
            "SPONSORSHIPS": "SPONSOR_NAME",
        },
        date_columns={
            "SPORTS_FINANCIALS": "FIN_MONTH",
            "SPORTS_VIEWERSHIP": "VIEW_MONTH",
        },
        glossary=glossary,
        guidelines=guidelines,
        intent_names={
            "SPORTS_ORGS": "organisation portfolio",
            "SPORTS_FINANCIALS": "financial performance",
            "SPORTS_VIEWERSHIP": "TV viewership numbers",
            "SPONSORSHIPS": "sponsorship deals",
        },
    )


# ---------------------------------------------------------------------------
# retail chain
# ---------------------------------------------------------------------------


def build_retail(seed=DEFAULT_SEED):
    rng = random.Random(seed * 11 + 2)
    db = Database("retail_chain", description="Multi-region retail chain.")
    regions = ["East", "West", "Central", "North"]
    store_rows = []
    store_names = [
        f"{city} Outlet" for city in datagen.CITIES[:12]
    ]
    for position, name in enumerate(store_names):
        store_rows.append(
            (
                position + 1,
                name,
                rng.choice(regions),
                name.split(" ")[0],
                rng.randint(2001, 2020),
                rng.randint(4000, 30000),
            )
        )
    db.create_table(
        "STORES",
        [
            _col("STORE_ID", "INTEGER", "Unique store id."),
            _col("STORE_NAME", "TEXT", "Store name.", synonyms=("store", "outlet")),
            _col("REGION", "TEXT", "Sales region."),
            _col("CITY", "TEXT", "Store city."),
            _col("OPENED_YEAR", "INTEGER", "Year the store opened."),
            _col("SQUARE_FEET", "INTEGER", "Retail floor area.",
                 synonyms=("floor area", "size")),
        ],
        rows=store_rows,
        description="Each row is a retail store.",
    )
    channels = [("in-store", 5), ("online", 3), ("phone", 1)]
    statuses = [("completed", 8), ("returned", 1), ("cancelled", 1)]
    order_rows = []
    for index in range(420):
        amount = datagen.skewed_amount(rng, 20, 1500)
        order_rows.append(
            (
                index + 1,
                rng.randint(1, len(store_rows)),
                datagen.random_date_in(rng, 2022, 2023),
                amount,
                round(amount * rng.uniform(0.0, 0.25), 2),
                datagen.pick_weighted(rng, channels),
                datagen.pick_weighted(rng, statuses),
            )
        )
    db.create_table(
        "ORDERS",
        [
            _col("ORDER_ID", "INTEGER", "Unique order id."),
            _col("STORE_ID", "INTEGER", "Store that took the order.",
                 fk="STORES.STORE_ID"),
            _col("ORDER_DATE", "DATE", "Date of the order."),
            _col("AMOUNT", "FLOAT", "Gross order amount.",
                 synonyms=("amount", "sales", "order value")),
            _col("DISCOUNT", "FLOAT", "Discount applied to the order.",
                 synonyms=("discount",)),
            _col("CHANNEL", "TEXT", "Sales channel (in-store, online, phone)."),
            _col("STATUS", "TEXT", "Order status (completed, returned, cancelled)."),
        ],
        rows=order_rows,
        description="Each row is a customer order.",
    )
    categories = ["Footwear", "Apparel", "Electronics", "Home", "Outdoors"]
    product_rows = []
    product_names = [
        "Trail Runner", "City Sneaker", "Rain Shell", "Wool Sweater",
        "Noise-cancelling Headphones", "Smart Speaker", "Cast Iron Pan",
        "Ceramic Mug Set", "Camping Stove", "Trekking Poles",
        "Down Jacket", "Linen Shirt", "Bluetooth Tracker", "Desk Lamp",
        "Hiking Boots", "Yoga Mat", "Espresso Maker", "Wall Clock",
        "Canvas Tent", "Insulated Bottle", "Fleece Hoodie", "Road Helmet",
        "Action Camera", "Cutting Board", "Sleeping Bag", "Running Socks",
        "Graphic Tee", "Soundbar", "Serving Bowl", "Climbing Rope",
    ]
    suppliers = ["Norgate", "Bluepine", "Vexa", "Kodiak Supply"]
    for position, name in enumerate(product_names):
        product_rows.append(
            (
                position + 1,
                name,
                categories[position % len(categories)],
                datagen.skewed_amount(rng, 8, 420),
                rng.choice(suppliers),
            )
        )
    db.create_table(
        "PRODUCTS",
        [
            _col("PRODUCT_ID", "INTEGER", "Unique product id."),
            _col("PRODUCT_NAME", "TEXT", "Product name.", synonyms=("product",)),
            _col("CATEGORY", "TEXT", "Product category."),
            _col("UNIT_PRICE", "FLOAT", "List price per unit.",
                 synonyms=("price", "list price")),
            _col("SUPPLIER", "TEXT", "Supplying vendor."),
        ],
        rows=product_rows,
        description="Each row is a product in the catalog.",
    )
    item_rows = []
    for index in range(700):
        product = rng.choice(product_rows)
        item_rows.append(
            (
                index + 1,
                rng.randint(1, len(order_rows)),
                product[0],
                rng.randint(1, 6),
                product[3],
            )
        )
    db.create_table(
        "ORDER_ITEMS",
        [
            _col("ITEM_ID", "INTEGER", "Unique line-item id."),
            _col("ORDER_ID", "INTEGER", "Order the line belongs to.",
                 fk="ORDERS.ORDER_ID"),
            _col("PRODUCT_ID", "INTEGER", "Product sold.",
                 fk="PRODUCTS.PRODUCT_ID"),
            _col("QUANTITY", "INTEGER", "Units sold.", synonyms=("units", "qty")),
            _col("UNIT_PRICE", "FLOAT", "Price charged per unit."),
        ],
        rows=item_rows,
        description="Each row is an order line item.",
    )
    glossary = [
        GlossaryEntry(
            term="net revenue",
            definition="gross order amount minus discounts",
            sql_pattern="SUM(AMOUNT) - SUM(DISCOUNT)",
            tables=("ORDERS",),
            intent_name="order analytics",
        ),
        GlossaryEntry(
            term="AOV",
            definition="average order value: the mean gross order amount",
            sql_pattern="AVG(AMOUNT)",
            tables=("ORDERS",),
            intent_name="order analytics",
        ),
        GlossaryEntry(
            term="return rate",
            definition="fraction of orders whose status is returned",
            sql_pattern=(
                "CAST(SUM(CASE WHEN STATUS = 'returned' THEN 1 ELSE 0 END) "
                "AS FLOAT) / NULLIF(COUNT(*), 0)"
            ),
            tables=("ORDERS",),
            intent_name="order analytics",
        ),
    ]
    guidelines = [
        GuidelineEntry(
            text="'online' orders means CHANNEL = 'online'",
            sql_pattern="CHANNEL = 'online'",
            tables=("ORDERS",),
            intent_name="order analytics",
        ),
    ]
    return DatabaseProfile(
        database=db,
        label_columns={
            "STORES": "STORE_NAME",
            "ORDERS": "ORDER_ID",
            "PRODUCTS": "PRODUCT_NAME",
            "ORDER_ITEMS": "ITEM_ID",
        },
        date_columns={"ORDERS": "ORDER_DATE"},
        glossary=glossary,
        guidelines=guidelines,
        intent_names={
            "STORES": "store network",
            "ORDERS": "order analytics",
            "PRODUCTS": "product catalog",
            "ORDER_ITEMS": "order analytics",
        },
    )


# ---------------------------------------------------------------------------
# healthcare network
# ---------------------------------------------------------------------------


def build_healthcare(seed=DEFAULT_SEED):
    rng = random.Random(seed * 11 + 3)
    db = Database("healthcare_network", description="Hospital network.")
    insurances = [("Provincial", 5), ("PrivatePlus", 3), ("None", 1)]
    patient_rows = []
    for index in range(70):
        patient_rows.append(
            (
                index + 1,
                datagen.person_name(rng),
                rng.randint(1938, 2008),
                rng.choice(["F", "M"]),
                rng.choice(datagen.CITIES[:10]),
                datagen.pick_weighted(rng, insurances),
            )
        )
    db.create_table(
        "PATIENTS",
        [
            _col("PATIENT_ID", "INTEGER", "Unique patient id."),
            _col("FULL_NAME", "TEXT", "Patient name.", synonyms=("patient name",)),
            _col("BIRTH_YEAR", "INTEGER", "Year of birth."),
            _col("GENDER", "TEXT", "Gender (F or M)."),
            _col("CITY", "TEXT", "Home city."),
            _col("INSURANCE", "TEXT", "Insurance plan."),
        ],
        rows=patient_rows,
        description="Each row is a patient.",
    )
    departments = [
        ("Cardiology", 3), ("Oncology", 2), ("Orthopedics", 3),
        ("Neurology", 2), ("Emergency", 5),
    ]
    outcomes = [("recovered", 6), ("referred", 2), ("ongoing", 2)]
    visit_rows = []
    for index in range(340):
        visit_rows.append(
            (
                index + 1,
                rng.randint(1, len(patient_rows)),
                datagen.random_date_in(rng, 2022, 2023),
                datagen.pick_weighted(rng, departments),
                datagen.skewed_amount(rng, 80, 9000),
                rng.randint(10, 600),
                datagen.pick_weighted(rng, outcomes),
            )
        )
    db.create_table(
        "VISITS",
        [
            _col("VISIT_ID", "INTEGER", "Unique visit id."),
            _col("PATIENT_ID", "INTEGER", "Patient seen.",
                 fk="PATIENTS.PATIENT_ID"),
            _col("VISIT_DATE", "DATE", "Date of the visit."),
            _col("DEPARTMENT", "TEXT", "Hospital department."),
            _col("COST", "FLOAT", "Billed cost of the visit.",
                 synonyms=("cost", "billing", "charges")),
            _col("DURATION_MINUTES", "INTEGER", "Visit duration in minutes.",
                 synonyms=("duration", "length of stay")),
            _col("OUTCOME", "TEXT", "Visit outcome (recovered, referred, ongoing)."),
        ],
        rows=visit_rows,
        description="Each row is a hospital visit.",
    )
    drugs = [
        "Atorvastatin", "Metformin", "Lisinopril", "Amoxicillin",
        "Omeprazole", "Sertraline", "Ibuprofen", "Insulin Glargine",
    ]
    rx_rows = []
    for index in range(220):
        rx_rows.append(
            (
                index + 1,
                rng.randint(1, len(visit_rows)),
                rng.choice(drugs),
                rng.randint(1, 90),
                datagen.skewed_amount(rng, 1, 60),
            )
        )
    db.create_table(
        "PRESCRIPTIONS",
        [
            _col("RX_ID", "INTEGER", "Unique prescription id."),
            _col("VISIT_ID", "INTEGER", "Visit that issued the prescription.",
                 fk="VISITS.VISIT_ID"),
            _col("DRUG_NAME", "TEXT", "Prescribed drug.", synonyms=("drug", "medication")),
            _col("QUANTITY", "INTEGER", "Units prescribed."),
            _col("UNIT_COST", "FLOAT", "Cost per unit."),
        ],
        rows=rx_rows,
        description="Each row is a prescription.",
    )
    glossary = [
        GlossaryEntry(
            term="CPV",
            definition="cost per visit: total billed cost divided by the number of visits",
            sql_pattern="CAST(SUM(COST) AS FLOAT) / NULLIF(COUNT(*), 0)",
            tables=("VISITS",),
            intent_name="visit analytics",
        ),
        GlossaryEntry(
            term="recovery rate",
            definition="fraction of visits whose outcome is recovered",
            sql_pattern=(
                "CAST(SUM(CASE WHEN OUTCOME = 'recovered' THEN 1 ELSE 0 END)"
                " AS FLOAT) / NULLIF(COUNT(*), 0)"
            ),
            tables=("VISITS",),
            intent_name="visit analytics",
        ),
    ]
    guidelines = [
        GuidelineEntry(
            text="'long' visits means DURATION_MINUTES > 240",
            sql_pattern="DURATION_MINUTES > 240",
            tables=("VISITS",),
            intent_name="visit analytics",
        ),
    ]
    return DatabaseProfile(
        database=db,
        label_columns={
            "PATIENTS": "FULL_NAME",
            "VISITS": "DEPARTMENT",
            "PRESCRIPTIONS": "DRUG_NAME",
        },
        date_columns={"VISITS": "VISIT_DATE"},
        glossary=glossary,
        guidelines=guidelines,
        intent_names={
            "PATIENTS": "patient registry",
            "VISITS": "visit analytics",
            "PRESCRIPTIONS": "prescription analytics",
        },
    )


# ---------------------------------------------------------------------------
# university
# ---------------------------------------------------------------------------


def build_university(seed=DEFAULT_SEED):
    rng = random.Random(seed * 11 + 4)
    db = Database("university", description="University registrar data.")
    majors = [
        ("Computer Science", 4), ("Biology", 3), ("Economics", 3),
        ("History", 2), ("Mechanical Engineering", 2),
    ]
    states = [("Ontario", 4), ("Quebec", 3), ("Alberta", 2), ("Nova Scotia", 1)]
    student_rows = []
    for index in range(90):
        student_rows.append(
            (
                index + 1,
                datagen.person_name(rng),
                datagen.pick_weighted(rng, majors),
                rng.randint(2018, 2023),
                datagen.pick_weighted(rng, states),
                round(rng.uniform(1.8, 4.0), 2),
            )
        )
    db.create_table(
        "STUDENTS",
        [
            _col("STUDENT_ID", "INTEGER", "Unique student id."),
            _col("STUDENT_NAME", "TEXT", "Student name."),
            _col("MAJOR", "TEXT", "Declared major."),
            _col("ENROLL_YEAR", "INTEGER", "Year of first enrollment."),
            _col("HOME_STATE", "TEXT", "Home province or state.",
                 synonyms=("province", "state")),
            _col("GPA", "FLOAT", "Grade point average.", synonyms=("gpa", "grade average")),
        ],
        rows=student_rows,
        description="Each row is a student.",
    )
    course_names = [
        "Intro to Programming", "Data Structures", "Organic Chemistry",
        "Microeconomics", "World History", "Thermodynamics",
        "Linear Algebra", "Genetics", "Macroeconomics", "Databases",
        "Fluid Mechanics", "Statistics", "Operating Systems",
        "Ecology", "Game Theory", "Modern Art History",
        "Machine Design", "Algorithms", "Cell Biology", "Econometrics",
        "Ancient Civilizations", "Robotics", "Compilers", "Immunology",
    ]
    departments = ["CS", "BIO", "ECON", "HIST", "MECH"]
    course_rows = []
    for position, name in enumerate(course_names):
        course_rows.append(
            (
                position + 1,
                name,
                departments[position % len(departments)],
                rng.choice([3, 3, 4]),
                rng.choice([100, 200, 300, 400]),
            )
        )
    db.create_table(
        "COURSES",
        [
            _col("COURSE_ID", "INTEGER", "Unique course id."),
            _col("COURSE_NAME", "TEXT", "Course title.", synonyms=("course",)),
            _col("DEPARTMENT", "TEXT", "Offering department."),
            _col("CREDITS", "INTEGER", "Credit hours.", synonyms=("credits",)),
            _col("LEVEL", "INTEGER", "Course level (100-400)."),
        ],
        rows=course_rows,
        description="Each row is a course.",
    )
    statuses = [("passed", 7), ("failed", 1), ("withdrawn", 1)]
    enrollment_rows = []
    for index in range(430):
        enrollment_rows.append(
            (
                index + 1,
                rng.randint(1, len(student_rows)),
                rng.randint(1, len(course_rows)),
                datagen.random_date_in(rng, 2022, 2023),
                round(rng.uniform(0.0, 4.0), 1),
                datagen.pick_weighted(rng, statuses),
            )
        )
    db.create_table(
        "ENROLLMENTS",
        [
            _col("ENROLL_ID", "INTEGER", "Unique enrollment id."),
            _col("STUDENT_ID", "INTEGER", "Enrolled student.",
                 fk="STUDENTS.STUDENT_ID"),
            _col("COURSE_ID", "INTEGER", "Course enrolled in.",
                 fk="COURSES.COURSE_ID"),
            _col("TERM_DATE", "DATE", "Start date of the term."),
            _col("GRADE_POINTS", "FLOAT", "Grade points earned (0-4).",
                 synonyms=("grade",)),
            _col("STATUS", "TEXT", "Enrollment status (passed, failed, withdrawn)."),
        ],
        rows=enrollment_rows,
        description="Each row is a course enrollment.",
    )
    glossary = [
        GlossaryEntry(
            term="pass rate",
            definition="fraction of enrollments whose status is passed",
            sql_pattern=(
                "CAST(SUM(CASE WHEN STATUS = 'passed' THEN 1 ELSE 0 END) "
                "AS FLOAT) / NULLIF(COUNT(*), 0)"
            ),
            tables=("ENROLLMENTS",),
            intent_name="enrollment analytics",
        ),
    ]
    guidelines = [
        GuidelineEntry(
            text="'honor' students means GPA >= 3.7",
            sql_pattern="GPA >= 3.7",
            tables=("STUDENTS",),
            intent_name="student records",
        ),
    ]
    return DatabaseProfile(
        database=db,
        label_columns={
            "STUDENTS": "STUDENT_NAME",
            "COURSES": "COURSE_NAME",
            "ENROLLMENTS": "ENROLL_ID",
        },
        date_columns={"ENROLLMENTS": "TERM_DATE"},
        glossary=glossary,
        guidelines=guidelines,
        intent_names={
            "STUDENTS": "student records",
            "COURSES": "course catalog",
            "ENROLLMENTS": "enrollment analytics",
        },
    )


# ---------------------------------------------------------------------------
# logistics (wide schema — schema-linking pressure)
# ---------------------------------------------------------------------------


def build_logistics(seed=DEFAULT_SEED):
    rng = random.Random(seed * 11 + 5)
    db = Database("global_logistics", description="Freight logistics network.")
    hub_rows = []
    hub_names = [
        "Rotterdam Gateway", "Singapore Straits", "Halifax Atlantic",
        "Long Beach Pacific", "Hamburg Elbe", "Dubai Crossroads",
        "Shanghai Yangtze", "Santos Coffee", "Felixstowe Channel",
        "Vancouver Pacific", "Antwerp Scheldt", "Busan Gateway",
    ]
    hub_countries = [
        "Netherlands", "Singapore", "Canada", "USA", "Germany", "UAE",
        "China", "Brazil", "UK", "Canada", "Belgium", "South Korea",
    ]
    regions = ["Europe", "Asia", "Americas", "Middle East"]
    for position, name in enumerate(hub_names):
        hub_rows.append(
            (
                position + 1,
                name,
                hub_countries[position],
                rng.randint(5000, 90000),
                rng.choice(regions),
            )
        )
    db.create_table(
        "HUBS",
        [
            _col("HUB_ID", "INTEGER", "Unique hub id."),
            _col("HUB_NAME", "TEXT", "Hub name.", synonyms=("hub", "port")),
            _col("COUNTRY", "TEXT", "Hub country."),
            _col("CAPACITY_TONS", "INTEGER", "Monthly handling capacity in tons."),
            _col("REGION", "TEXT", "Hub region."),
        ],
        rows=hub_rows,
        description="Each row is a logistics hub.",
    )
    carrier_rows = []
    carrier_names = [
        "BlueWave Lines", "TransPolar", "Meridian Freight", "Cascadia Cargo",
        "EquatorExpress", "NorthStar Shipping", "Atlas Haulage",
        "Pacific Loop", "IronRoad Logistics", "SwiftKeel",
    ]
    for position, name in enumerate(carrier_names):
        carrier_rows.append(
            (
                position + 1,
                name,
                rng.randint(12, 240),
                rng.choice(["Canada", "USA", "Netherlands", "Singapore", "UK"]),
                round(rng.uniform(2.4, 4.9), 1),
            )
        )
    db.create_table(
        "CARRIERS",
        [
            _col("CARRIER_ID", "INTEGER", "Unique carrier id."),
            _col("CARRIER_NAME", "TEXT", "Carrier name.", synonyms=("carrier",)),
            _col("FLEET_SIZE", "INTEGER", "Number of vessels/trucks."),
            _col("HOME_COUNTRY", "TEXT", "Carrier home country."),
            _col("SAFETY_RATING", "FLOAT", "Safety audit rating (0-5).",
                 synonyms=("safety rating",)),
        ],
        rows=carrier_rows,
        description="Each row is a freight carrier.",
    )
    priorities = [("standard", 6), ("express", 3), ("critical", 1)]
    statuses = [("delivered", 7), ("in transit", 2), ("delayed", 1)]
    cargo_types = ["container", "bulk", "refrigerated", "liquid", "vehicle"]
    shipment_rows = []
    for index in range(260):
        weight = datagen.skewed_amount(rng, 50, 24000)
        freight = datagen.skewed_amount(rng, 200, 60000)
        shipment_rows.append(
            (
                index + 1,
                rng.randint(1, len(hub_rows)),
                rng.randint(1, len(hub_rows)),
                datagen.random_date_in(rng, 2022, 2023),
                weight,
                round(weight * rng.uniform(0.001, 0.004), 2),
                freight,
                round(freight * rng.uniform(0.05, 0.2), 2),
                round(freight * rng.uniform(0.01, 0.05), 2),
                rng.randint(1, len(carrier_rows)),
                datagen.pick_weighted(rng, priorities),
                datagen.pick_weighted(rng, statuses),
                rng.randint(120, 19000),
                rng.choice(cargo_types),
                rng.randint(1, 4),
                round(rng.uniform(0.0, 14.0), 1),
                rng.choice(["USD", "USD", "USD", "EUR", "CAD"]),
                rng.randint(0, 3),
                round(rng.uniform(0.0, 1.0), 2),
                rng.choice(["north", "south", "east", "west"]),
            )
        )
    db.create_table(
        "SHIPMENTS",
        [
            _col("SHIP_ID", "INTEGER", "Unique shipment id."),
            _col("ORIGIN_HUB_ID", "INTEGER", "Origin hub.", fk="HUBS.HUB_ID"),
            _col("DEST_HUB_ID", "INTEGER", "Destination hub.", fk="HUBS.HUB_ID"),
            _col("SHIP_DATE", "DATE", "Dispatch date."),
            _col("WEIGHT_KG", "FLOAT", "Cargo weight in kilograms.",
                 synonyms=("weight",)),
            _col("VOLUME_M3", "FLOAT", "Cargo volume in cubic meters.",
                 synonyms=("volume",)),
            _col("FREIGHT_COST", "FLOAT", "Base freight cost.",
                 synonyms=("freight cost", "shipping cost")),
            _col("FUEL_SURCHARGE", "FLOAT", "Fuel surcharge."),
            _col("INSURANCE_FEE", "FLOAT", "Insurance fee."),
            _col("CARRIER_ID", "INTEGER", "Carrier moving the shipment.",
                 fk="CARRIERS.CARRIER_ID"),
            _col("PRIORITY", "TEXT", "Priority class (standard, express, critical)."),
            _col("STATUS", "TEXT", "Status (delivered, in transit, delayed)."),
            _col("DISTANCE_KM", "INTEGER", "Route distance in kilometers.",
                 synonyms=("distance",)),
            _col("CARGO_TYPE", "TEXT", "Cargo type."),
            _col("LEG_COUNT", "INTEGER", "Number of route legs."),
            _col("CUSTOMS_DELAY_DAYS", "FLOAT", "Days held at customs."),
            _col("CURRENCY", "TEXT", "Billing currency."),
            _col("RETRY_COUNT", "INTEGER", "Rebooking attempts."),
            _col("CO2_FACTOR", "FLOAT", "Emission factor for the route."),
            _col("ROUTE_BEARING", "TEXT", "Dominant compass bearing."),
        ],
        rows=shipment_rows,
        description="Each row is a freight shipment.",
    )
    glossary = [
        GlossaryEntry(
            term="CPK",
            definition="cost per kilogram: total freight cost divided by total cargo weight",
            sql_pattern=(
                "CAST(SUM(FREIGHT_COST) AS FLOAT) / NULLIF(SUM(WEIGHT_KG), 0)"
            ),
            tables=("SHIPMENTS",),
            intent_name="shipment analytics",
        ),
        GlossaryEntry(
            term="landed cost",
            definition="freight cost plus fuel surcharge plus insurance fee",
            sql_pattern=(
                "SUM(FREIGHT_COST) + SUM(FUEL_SURCHARGE) + SUM(INSURANCE_FEE)"
            ),
            tables=("SHIPMENTS",),
            intent_name="shipment analytics",
        ),
        GlossaryEntry(
            term="on-time rate",
            definition="fraction of shipments whose status is delivered",
            sql_pattern=(
                "CAST(SUM(CASE WHEN STATUS = 'delivered' THEN 1 ELSE 0 END) "
                "AS FLOAT) / NULLIF(COUNT(*), 0)"
            ),
            tables=("SHIPMENTS",),
            intent_name="shipment analytics",
        ),
    ]
    guidelines = [
        GuidelineEntry(
            text="'urgent' shipments means PRIORITY = 'critical'",
            sql_pattern="PRIORITY = 'critical'",
            tables=("SHIPMENTS",),
            intent_name="shipment analytics",
        ),
    ]
    return DatabaseProfile(
        database=db,
        label_columns={
            "HUBS": "HUB_NAME",
            "CARRIERS": "CARRIER_NAME",
            "SHIPMENTS": "SHIP_ID",
        },
        date_columns={"SHIPMENTS": "SHIP_DATE"},
        glossary=glossary,
        guidelines=guidelines,
        intent_names={
            "HUBS": "hub network",
            "CARRIERS": "carrier fleet",
            "SHIPMENTS": "shipment analytics",
        },
    )


# ---------------------------------------------------------------------------
# energy grid (second wide schema)
# ---------------------------------------------------------------------------


def build_energy(seed=DEFAULT_SEED):
    rng = random.Random(seed * 11 + 6)
    db = Database("energy_grid", description="Regional power grid operator.")
    fuels = [("hydro", 4), ("wind", 3), ("gas", 3), ("solar", 2), ("nuclear", 1)]
    plant_rows = []
    plant_names = [
        "Riverbend Station", "Galehead Farm", "Bluepeak Plant",
        "Sunfield Array", "Ironwater Dam", "Northwind Ridge",
        "Ember Valley", "Stillwater Falls", "Copperline Station",
        "Whitecap Shore", "Granite Gorge", "Longlake Dam",
        "Meadowlark Farm", "Deepcurrent Station",
    ]
    regions = ["Northern", "Prairie", "Coastal", "Mountain"]
    operators = ["GridCo", "VoltNorth", "Silverline Power"]
    for position, name in enumerate(plant_names):
        plant_rows.append(
            (
                position + 1,
                name,
                rng.choice(regions),
                datagen.pick_weighted(rng, fuels),
                rng.randint(40, 1800),
                rng.randint(1968, 2021),
                rng.choice(operators),
                round(rng.uniform(0.2, 0.96), 2),
                rng.randint(12, 400),
                rng.choice(["active", "active", "active", "standby"]),
                round(rng.uniform(10.0, 95.0), 1),
                rng.choice(["AC", "DC"]),
            )
        )
    db.create_table(
        "PLANTS",
        [
            _col("PLANT_ID", "INTEGER", "Unique plant id."),
            _col("PLANT_NAME", "TEXT", "Plant name.", synonyms=("plant", "station")),
            _col("REGION", "TEXT", "Grid region."),
            _col("FUEL_TYPE", "TEXT", "Fuel type (hydro, wind, gas, solar, nuclear)."),
            _col("CAPACITY_MW", "INTEGER", "Nameplate capacity in megawatts.",
                 synonyms=("capacity",)),
            _col("COMMISSION_YEAR", "INTEGER", "Year commissioned."),
            _col("OPERATOR", "TEXT", "Operating company."),
            _col("EFFICIENCY_RATING", "FLOAT", "Thermal/mechanical efficiency (0-1)."),
            _col("STAFF_COUNT", "INTEGER", "On-site staff."),
            _col("STATE", "TEXT", "Operational state."),
            _col("LAND_HECTARES", "FLOAT", "Site area in hectares."),
            _col("GRID_COUPLING", "TEXT", "Grid coupling type."),
        ],
        rows=plant_rows,
        description="Each row is a power plant.",
    )
    reading_rows = []
    reading_id = 0
    zones = ["Aurora", "Borealis", "Cascadia", "Dominion"]
    for plant in plant_rows:
        base_output = plant[4] * rng.uniform(180, 420)
        plant_zone = rng.choice(zones)
        for year in (2022, 2023):
            for month in range(1, 13):
                reading_id += 1
                output = base_output * (1.0 + 0.35 * rng.uniform(-1, 1))
                reading_rows.append(
                    (
                        reading_id,
                        plant[0],
                        datagen.month_date(year, month),
                        plant_zone,
                        round(output, 1),
                        round(output * rng.uniform(0.0, 0.9), 1),
                        round(rng.uniform(0, 120), 1),
                        datagen.skewed_amount(rng, 5, 900),
                        round(rng.uniform(0.85, 1.0), 3),
                        rng.randint(0, 4),
                        round(rng.uniform(-25, 35), 1),
                    )
                )
    db.create_table(
        "READINGS",
        [
            _col("READING_ID", "INTEGER", "Unique reading id."),
            _col("PLANT_ID", "INTEGER", "Plant measured.", fk="PLANTS.PLANT_ID"),
            _col("READ_MONTH", "DATE", "Month of the reading."),
            _col("GRID_ZONE", "TEXT", "Grid zone the reading feeds.",
                 synonyms=("zone", "grid zone")),
            _col("OUTPUT_MWH", "FLOAT", "Energy produced in megawatt hours.",
                 synonyms=("output", "generation", "production")),
            _col("EMISSIONS_TONS", "FLOAT", "CO2 emissions in tons.",
                 synonyms=("emissions",)),
            _col("DOWNTIME_HOURS", "FLOAT", "Hours offline.", synonyms=("downtime",)),
            _col("MAINTENANCE_COST", "FLOAT", "Maintenance spend in thousands.",
                 synonyms=("maintenance cost",)),
            _col("UPTIME_RATIO", "FLOAT", "Fraction of the month online."),
            _col("INCIDENT_COUNT", "INTEGER", "Safety incidents logged."),
            _col("AVG_TEMP_C", "FLOAT", "Average site temperature."),
        ],
        rows=reading_rows,
        description="Each row is a monthly production reading.",
    )
    glossary = [
        GlossaryEntry(
            term="emission intensity",
            definition="CO2 emissions per megawatt hour produced",
            sql_pattern=(
                "CAST(SUM(EMISSIONS_TONS) AS FLOAT) / "
                "NULLIF(SUM(OUTPUT_MWH), 0)"
            ),
            tables=("READINGS",),
            intent_name="production analytics",
        ),
        GlossaryEntry(
            term="maintenance intensity",
            definition="maintenance spend per megawatt hour produced",
            sql_pattern=(
                "CAST(SUM(MAINTENANCE_COST) AS FLOAT) / "
                "NULLIF(SUM(OUTPUT_MWH), 0)"
            ),
            tables=("READINGS",),
            intent_name="production analytics",
        ),
    ]
    guidelines = [
        GuidelineEntry(
            text="'renewable' plants means FUEL_TYPE IN hydro, wind, solar",
            sql_pattern="FUEL_TYPE IN ('hydro', 'wind', 'solar')",
            tables=("PLANTS",),
            intent_name="plant fleet",
        ),
    ]
    return DatabaseProfile(
        database=db,
        label_columns={"PLANTS": "PLANT_NAME", "READINGS": "READING_ID"},
        date_columns={"READINGS": "READ_MONTH"},
        glossary=glossary,
        guidelines=guidelines,
        intent_names={
            "PLANTS": "plant fleet",
            "READINGS": "production analytics",
        },
    )


_BUILDERS = {
    "sports_holdings": build_sports,
    "retail_chain": build_retail,
    "healthcare_network": build_healthcare,
    "university": build_university,
    "global_logistics": build_logistics,
    "energy_grid": build_energy,
}

DATABASE_NAMES = tuple(sorted(_BUILDERS))


@lru_cache(maxsize=1)
def build_all(seed=DEFAULT_SEED):
    """Build every benchmark database profile, keyed by database name.

    One seed is cached: its callers reuse it back to back, and each held
    seed keeps its databases and their memos alive."""
    return {name: _BUILDERS[name](seed) for name in DATABASE_NAMES}


def build_profile(name, seed=DEFAULT_SEED):
    return build_all(seed)[name]
